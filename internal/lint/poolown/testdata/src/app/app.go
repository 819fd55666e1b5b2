// Package app seeds poolown's golden violations and blessed-path
// negatives against the fake packet pool and sim Proc surface.
package app

import (
	"packet"
	"sim"
)

type node struct {
	pool *packet.Pool
	proc sim.Proc
}

type box struct{ pkt *packet.Packet }

// ---- violations ----

// useAfterPut mirrors the exact pattern the pool's runtime generation
// check panics on: read after the value went back to the free list.
func (n *node) useAfterPut() int {
	pkt := n.pool.Get()
	n.pool.Put(pkt)
	return pkt.Size // want `use of pooled value pkt after Put`
}

// conditionalPut releases on one branch only: the later read is a
// use-after-free on the drop path and a leak on the other.
func (n *node) conditionalPut(drop bool) int {
	pkt := n.pool.Get()
	if drop {
		n.pool.Put(pkt)
	}
	return pkt.Size // want `use of pooled value pkt after Put` `pooled value pkt may leak on this return path`
}

// doublePut frees twice when the retry branch already ran.
func (n *node) doublePut(retry bool) {
	pkt := n.pool.Get()
	if retry {
		n.pool.Put(pkt)
	}
	n.pool.Put(pkt) // want `double Put of pooled value pkt`
}

// leakOnEarlyReturn is the early-return audit case: the guard path
// exits while still owning the packet.
func (n *node) leakOnEarlyReturn(limit int) {
	pkt := n.pool.Get()
	if limit == 0 {
		return // want `pooled value pkt may leak on this return path`
	}
	pkt.Size = limit
	n.pool.Put(pkt)
}

// twoLeaksOneReturn owns two packets at one early return: each is its
// own finding, though both come from one report site and position.
func (n *node) twoLeaksOneReturn(skip bool) {
	a := n.pool.Get()
	b := n.pool.Get()
	if skip {
		return // want `pooled value a may leak on this return path` `pooled value b may leak on this return path`
	}
	n.pool.Put(a)
	n.pool.Put(b)
}

// leakInLoop leaks one packet per skipped iteration.
func (n *node) leakInLoop(k int) {
	for i := 0; i < k; i++ {
		pkt := n.pool.Get()
		if i%2 == 0 {
			continue
		}
		n.pool.Put(pkt)
	}
} // want `pooled value pkt may leak on this return path`

// discard drops the owned result on the floor.
func (n *node) discard() {
	n.pool.Get() // want `result of pooled Get discarded`
}

// useAfterHandoffPut hands a released value to the blessed path.
func (n *node) useAfterHandoffPut(fn sim.CallFn) {
	pkt := n.pool.Get()
	n.pool.Put(pkt)
	n.proc.SendCall(0, 5, fn, nil, pkt, 0) // want `use of pooled value pkt after Put`
}

// transferLeak takes ownership via the directive but forgets the
// terminal on the error path — checked on the callee side too.
//
//speedlight:pool-transfer pkt
func (n *node) transferLeak(pkt *packet.Packet, ok bool) {
	if !ok {
		return // want `pooled value pkt may leak on this return path`
	}
	n.pool.Put(pkt)
}

// ---- blessed paths: no findings ----

// putOnEveryPath is the straight-line discipline.
func (n *node) putOnEveryPath(v int) {
	pkt := n.pool.Get()
	pkt.Size = v
	n.pool.Put(pkt)
}

// handoff transfers ownership through the blessed SendCall path.
func (n *node) handoff(fn sim.CallFn) {
	pkt := n.pool.Get()
	n.proc.SendCall(0, 5, fn, nil, pkt, 0)
}

// escapeReturn moves ownership to the caller.
func (n *node) escapeReturn() *packet.Packet {
	pkt := n.pool.Get()
	pkt.Size = 1
	return pkt
}

// escapeStore moves ownership into longer-lived storage.
func (n *node) escapeStore(b *box) {
	pkt := n.pool.Get()
	b.pkt = pkt
}

// escapeLiteral embeds the value in a composite literal the caller
// owns.
func (n *node) escapeLiteral() box {
	pkt := n.pool.Get()
	return box{pkt: pkt}
}

// deferPut discharges the obligation at every exit.
func (n *node) deferPut(deep bool) int {
	pkt := n.pool.Get()
	defer n.pool.Put(pkt)
	if deep {
		return 2 * pkt.Size
	}
	return pkt.Size
}

// consumePkt declares the ownership transfer both sides rely on.
//
//speedlight:pool-transfer pkt
func (n *node) consumePkt(pkt *packet.Packet) {
	n.pool.Put(pkt)
}

// viaTransfer hands off through the directive-marked callee.
func (n *node) viaTransfer() {
	pkt := n.pool.Get()
	n.consumePkt(pkt)
}

// deliverAssert mirrors deliverGlobalCall: ownership follows the type
// assertion out of the interface box, then terminates at Put.
//
//speedlight:pool-transfer b
func (n *node) deliverAssert(b interface{}) {
	pkt := b.(*packet.Packet)
	pkt.Size = 0
	n.pool.Put(pkt)
}

// deliverDirect mirrors deliverLocalCall: the release unwraps the
// assertion in place.
//
//speedlight:pool-transfer b
func (n *node) deliverDirect(b interface{}) {
	n.pool.Put(b.(*packet.Packet))
}

// panicPath owes nothing on the assertion-failure path.
func (n *node) panicPath(ok bool) {
	pkt := n.pool.Get()
	if !ok {
		panic("corrupt")
	}
	n.pool.Put(pkt)
}

// loopPerIteration gets and puts inside the loop body.
func (n *node) loopPerIteration(k int) {
	for i := 0; i < k; i++ {
		pkt := n.pool.Get()
		pkt.Size = i
		n.pool.Put(pkt)
	}
}

// poolUnchecked opts out — the pool's own panic tests violate the
// discipline on purpose.
//
//speedlight:pool-unchecked
func (n *node) poolUnchecked() {
	pkt := n.pool.Get()
	n.pool.Put(pkt)
	n.pool.Put(pkt)
	_ = pkt.Size
}
