package packet

import (
	"strings"
	"testing"
)

func TestPoolGetReturnsZeroedLivePacket(t *testing.T) {
	c := NewCentral()
	p := c.NewPool()

	pkt := p.Get()
	if pkt.pstate != pkLive {
		t.Fatalf("Get returned pstate %d, want live", pkt.pstate)
	}
	// Dirty every visible field, recycle, and check the next Get is clean.
	pkt.SrcHost, pkt.DstHost = 7, 9
	pkt.Seq = 42
	pkt.HasSnap = true
	pkt.Snap = SnapshotHeader{Type: TypeData, ID: 5, Channel: 1}
	p.Put(pkt)

	got := p.Get()
	want := Packet{pstate: pkLive}
	if *got != want {
		t.Fatalf("recycled packet not zeroed: %+v", *got)
	}
	p.Put(got)
}

// TestPoolDoublePutPanics violates the ownership discipline on purpose
// to prove the runtime check fires.
//
//speedlight:pool-unchecked
func TestPoolDoublePutPanics(t *testing.T) {
	c := NewCentral()
	p := c.NewPool()
	pkt := p.Get()
	p.Put(pkt)

	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("double Put did not panic")
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "double Put") {
			t.Fatalf("unexpected panic value: %v", r)
		}
	}()
	p.Put(pkt)
}

func TestPoolExternalPutIgnored(t *testing.T) {
	c := NewCentral()
	p := c.NewPool()
	ext := &Packet{SrcHost: 1, DstHost: 2}
	p.Put(ext) // must not panic, must not enroll the packet
	p.Put(ext) // and must stay a no-op on repeat
	if len(p.free) != 0 {
		t.Fatalf("external packet enrolled in free list (len %d)", len(p.free))
	}
}

func TestPoolCloneIsExternal(t *testing.T) {
	c := NewCentral()
	p := c.NewPool()
	pkt := p.Get()
	pkt.SrcHost = 3
	clone := pkt.Clone()
	if clone.pstate != pkExternal {
		t.Fatalf("Clone pstate %d, want external", clone.pstate)
	}
	p.Put(pkt)
	p.Put(clone) // external: no-op, no panic
	p.Put(clone)
}

// TestPoolCloneIsLive: Pool.Clone copies every field of any packet,
// external or pooled, into a packet the pool owns, and the copy obeys
// the pool's rules — a Put recycles it, a second Put panics.
//
//speedlight:pool-unchecked
func TestPoolCloneIsLive(t *testing.T) {
	c := NewCentral()
	p := c.NewPool()
	ext := &Packet{SrcHost: 3, DstHost: 4, Size: 64, HasSnap: true,
		Snap: SnapshotHeader{Type: TypeInitiation, ID: 9, Channel: 2}}
	cp := p.Clone(ext)
	if cp == ext || cp.pstate != pkLive {
		t.Fatalf("Clone of an external packet: same pointer %v, pstate %d; want a live copy", cp == ext, cp.pstate)
	}
	got := *cp
	got.pstate = pkExternal
	if got != *ext {
		t.Fatalf("Clone copied %+v, want %+v", got, *ext)
	}
	if ext.pstate != pkExternal {
		t.Fatalf("Clone changed the original's pstate to %d", ext.pstate)
	}
	if live := int(c.Allocated()) - c.FreeLen() - p.FreeLen(); live != 1 {
		t.Fatalf("accounting sees %d live packets after one Clone, want 1", live)
	}
	p.Put(cp)
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("double Put of a Clone did not panic")
		}
	}()
	p.Put(cp)
}

func TestPoolSpillAndRefillBalance(t *testing.T) {
	c := NewCentral()
	src := c.NewPool()
	sink := c.NewPool()

	// The source allocates a wave of packets; the sink frees them all.
	pkts := make([]*Packet, 5*poolBatch)
	for i := range pkts {
		pkts[i] = src.Get()
	}
	for _, pkt := range pkts {
		sink.Put(pkt)
	}
	c.mu.Lock()
	central := len(c.free)
	c.mu.Unlock()
	if central == 0 {
		t.Fatal("sink pool never spilled to the central exchange")
	}
	if len(sink.free) >= 2*poolBatch {
		t.Fatalf("sink free list kept %d packets, spill threshold is %d",
			len(sink.free), 2*poolBatch)
	}

	// A fresh wave from the source must drain the central exchange
	// rather than allocating from scratch.
	got := src.Get()
	c.mu.Lock()
	after := len(c.free)
	c.mu.Unlock()
	if after >= central {
		t.Fatalf("refill did not take from central: %d -> %d", central, after)
	}
	if got.pstate != pkLive {
		t.Fatalf("refilled packet pstate %d, want live", got.pstate)
	}
	src.Put(got)
}

//speedlight:allocgate packet.Pool.Get packet.Pool.Put packet.Pool.Clone
func TestPoolSteadyStateAllocs(t *testing.T) {
	c := NewCentral()
	p := c.NewPool()
	// Warm the free list past one batch so Get never refills.
	warm := make([]*Packet, poolBatch)
	for i := range warm {
		warm[i] = p.Get()
	}
	for _, pkt := range warm {
		p.Put(pkt)
	}
	orig := &Packet{Size: 64}
	if n := testing.AllocsPerRun(1000, func() {
		pkt := p.Get()
		pkt.Seq++
		p.Put(pkt)
		cp := p.Clone(orig)
		p.Put(cp)
	}); n != 0 {
		t.Fatalf("steady-state Get/Put allocates %v per run, want 0", n)
	}
}

func TestPoolAllocationAccounting(t *testing.T) {
	c := NewCentral()
	src := c.NewPool()
	sink := c.NewPool()

	if got := c.Allocated(); got != 0 {
		t.Fatalf("fresh central reports %d allocated", got)
	}

	// Every live packet must be visible as allocated-minus-free.
	pkts := make([]*Packet, 3*poolBatch)
	for i := range pkts {
		pkts[i] = src.Get()
	}
	live := int(c.Allocated()) - c.FreeLen() - src.FreeLen() - sink.FreeLen()
	if live != len(pkts) {
		t.Fatalf("accounting sees %d live packets, want %d", live, len(pkts))
	}

	// Returning them all — even via a different pool — must bring the
	// outstanding count back to zero: this is the leak-check identity
	// emunet teardown relies on.
	for _, pkt := range pkts {
		sink.Put(pkt)
	}
	live = int(c.Allocated()) - c.FreeLen() - src.FreeLen() - sink.FreeLen()
	if live != 0 {
		t.Fatalf("accounting sees %d live packets after full return, want 0", live)
	}

	// External packets are invisible to the accounting.
	before := c.Allocated()
	ext := &Packet{}
	sink.Put(ext)
	if c.Allocated() != before {
		t.Fatalf("external packet changed the allocation count")
	}
}
