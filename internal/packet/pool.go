package packet

import "sync"

// Pooled packet lifecycle.
//
// The emulated data plane moves one *Packet pointer per frame from
// injection to its terminal point (host delivery or any drop), so a
// packet's lifetime is explicit and single-owner: whichever execution
// context holds the pointer owns it, and the context that kills the
// packet returns it to a pool. Pools are plain free lists — deliberately
// not sync.Pool — owned by a single execution context (one emulated
// switch's simulation domain, or the driver), so Get and Put are
// unsynchronized slice operations. Balance between contexts (traffic
// sources allocate, sinks free) comes from a shared Central exchange:
// pools refill from and spill to it in batches, amortizing one mutex
// operation over poolBatch packets.
//
// Packets built directly by callers (&Packet{...}) are "external": Put
// ignores them, so pooling is strictly opt-in per packet. A second Put
// of the same pooled packet panics — the aliasing bug is caught, not
// silently recycled into two owners.

// packet lifecycle states (pstate field).
const (
	pkExternal uint8 = iota // not pool-managed (zero value: &Packet{...})
	pkLive                  // obtained from a Pool, not yet Put
	pkFree                  // sitting in a free list
)

// poolBatch is the refill/spill transfer size between a Pool and its
// Central, and the allocation batch when everything is empty.
const poolBatch = 64

// Central is the shared exchange behind a set of Pools. It is safe for
// concurrent use; per-context Pools touch it only on batch refill or
// spill.
type Central struct {
	mu   sync.Mutex
	free []*Packet
	// allocated counts every packet ever created by a pool backed by
	// this exchange (pools allocate locally, so the count is pushed
	// here from refill's cold path). Together with the free-list
	// lengths it yields the number of live packets in flight — the
	// quantity a leak check wants to see hit zero after a quiesced
	// teardown.
	allocated uint64
}

// NewCentral returns an empty exchange.
func NewCentral() *Central { return &Central{} }

// NewPool returns a free list backed by c. The returned Pool must be
// used from a single execution context.
func (c *Central) NewPool() Pool { return Pool{c: c} }

// Pool is one execution context's packet free list. The zero Pool is
// usable (it allocates on Get and never spills).
type Pool struct {
	c    *Central
	free []*Packet
}

// Get returns a zeroed, pool-owned packet. The caller owns it until the
// packet is handed off or Put.
//
//speedlight:hotpath
func (p *Pool) Get() *Packet {
	n := len(p.free)
	if n == 0 {
		return p.refill()
	}
	pkt := p.free[n-1]
	p.free[n-1] = nil
	p.free = p.free[:n-1]
	*pkt = Packet{pstate: pkLive}
	return pkt
}

// Put returns a pool-owned packet to the free list. External packets
// (built with &Packet{...}) are ignored, so terminal points may Put
// unconditionally. Putting the same pooled packet twice panics.
//
//speedlight:hotpath
func (p *Pool) Put(pkt *Packet) {
	if pkt.pstate != pkLive {
		if pkt.pstate == pkFree {
			panic("packet: double Put of a pooled packet (use after free)")
		}
		return // external: the caller manages its lifetime
	}
	pkt.pstate = pkFree
	p.free = append(p.free, pkt)
	if len(p.free) >= 2*poolBatch && p.c != nil {
		p.spill()
	}
}

// Clone returns a pool-owned copy of pkt, whatever pkt's own lifecycle:
// the copy the caller owns until it is handed off or Put.
//
//speedlight:hotpath
func (p *Pool) Clone(pkt *Packet) *Packet {
	q := p.Get()
	*q, q.pstate = *pkt, pkLive
	return q
}

// refill is Get's cold path: take a batch from the Central, or allocate
// one when the exchange is dry. Kept out of the hot path so hotalloc
// can bless Get.
func (p *Pool) refill() *Packet {
	if c := p.c; c != nil {
		c.mu.Lock()
		n := len(c.free)
		take := poolBatch
		if take > n {
			take = n
		}
		if take > 0 {
			p.free = append(p.free, c.free[n-take:]...)
			for i := n - take; i < n; i++ {
				c.free[i] = nil
			}
			c.free = c.free[:n-take]
		}
		c.mu.Unlock()
	}
	if len(p.free) == 0 {
		// Allocate a batch in one block; the block is pinned while any
		// of its packets is live, which is fine: steady state recycles.
		block := make([]Packet, poolBatch)
		for i := range block {
			block[i].pstate = pkFree
			p.free = append(p.free, &block[i])
		}
		if c := p.c; c != nil {
			c.mu.Lock()
			c.allocated += poolBatch
			c.mu.Unlock()
		}
	}
	n := len(p.free)
	pkt := p.free[n-1]
	p.free[n-1] = nil
	p.free = p.free[:n-1]
	*pkt = Packet{pstate: pkLive}
	return pkt
}

// Allocated returns the number of packets ever created by pools backed
// by this exchange. Safe for concurrent use.
//
//speedlight:api emunet's tests' leak check and packet's tests read it
func (c *Central) Allocated() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.allocated
}

// FreeLen returns the exchange's current free-list length. Safe for
// concurrent use.
//
//speedlight:api emunet's tests' leak check and packet's tests read it
func (c *Central) FreeLen() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.free)
}

// FreeLen returns the pool's local free-list length. Like Get and Put
// it must be called from the pool's owning context.
//
//speedlight:api emunet's tests' leak check and packet's tests read it
func (p *Pool) FreeLen() int { return len(p.free) }

// spill moves a batch to the Central so sink-heavy contexts feed
// source-heavy ones.
func (p *Pool) spill() {
	n := len(p.free)
	c := p.c
	c.mu.Lock()
	c.free = append(c.free, p.free[n-poolBatch:]...)
	c.mu.Unlock()
	for i := n - poolBatch; i < n; i++ {
		p.free[i] = nil
	}
	p.free = p.free[:n-poolBatch]
}
