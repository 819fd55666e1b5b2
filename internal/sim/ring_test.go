package sim

import (
	"fmt"
	"strings"
	"testing"
)

// TestEvRingWraparound walks the ring across its index mask several
// laps: slot reuse must never reorder or drop events, and the
// full/empty boundary conditions must be exact at every lap offset.
func TestEvRingWraparound(t *testing.T) {
	r := newEvRing(4)
	if len(r.slots) != 4 {
		t.Fatalf("newEvRing(4) capacity = %d, want 4", len(r.slots))
	}
	evs := make([]*Event, 7)
	for i := range evs {
		evs[i] = &Event{i: int64(i)}
	}
	// Offset the indexes by a different amount each lap so every slot
	// sees the boundary.
	next := 0
	for lap := 0; lap < 13; lap++ {
		burst := 1 + lap%3
		for k := 0; k < burst; k++ {
			if !r.tryPush(evs[(next+k)%len(evs)]) {
				t.Fatalf("lap %d: push %d failed below capacity", lap, k)
			}
		}
		for k := 0; k < burst; k++ {
			got := r.tryPop()
			want := evs[(next+k)%len(evs)]
			if got != want {
				t.Fatalf("lap %d: pop %d = %v, want event %d", lap, k, got, want.i)
			}
		}
		next = (next + burst) % len(evs)
		if !r.empty() {
			t.Fatalf("lap %d: ring not empty after symmetric drain", lap)
		}
	}
}

// TestEvRingFullEmptyEdges exercises the capacity boundary: a full
// ring rejects pushes without blocking or overwriting, and frees
// exactly one slot per pop.
func TestEvRingFullEmptyEdges(t *testing.T) {
	r := newEvRing(2)
	a, b, c := &Event{i: 1}, &Event{i: 2}, &Event{i: 3}
	if r.tryPop() != nil {
		t.Fatal("pop on empty ring returned an event")
	}
	if !r.tryPush(a) || !r.tryPush(b) {
		t.Fatal("pushes below capacity failed")
	}
	if r.tryPush(c) {
		t.Fatal("push on full ring succeeded")
	}
	if got := r.tryPop(); got != a {
		t.Fatalf("first pop = %v, want a", got)
	}
	if !r.tryPush(c) {
		t.Fatal("push after freeing one slot failed")
	}
	if got := r.tryPop(); got != b {
		t.Fatalf("second pop = %v, want b", got)
	}
	if got := r.tryPop(); got != c {
		t.Fatalf("third pop = %v, want c", got)
	}
	if !r.empty() || r.tryPop() != nil {
		t.Fatal("drained ring not empty")
	}
}

// ringFloodLogs runs a two-shard ping/echo flood at the given ring
// capacity and returns the delivery logs of both sides. The flood
// outruns any small ring, forcing the producers through the
// backpressure slow path (drain-own-inbound, then retry).
func ringFloodLogs(t *testing.T, ringCap int) (right, left []int64) {
	t.Helper()
	p := NewParallel(42, 2, 10)
	p.ringCap = ringCap
	a, b := p.Proc(1), p.Proc(2)
	var sinkR, sinkL, burst, echo CallFn
	sinkR = func(_, _ any, i int64) { right = append(right, int64(b.Now())*1_000_000+i) }
	sinkL = func(_, _ any, i int64) { left = append(left, int64(a.Now())*1_000_000+i) }
	echo = func(_, _ any, i int64) { b.SendCall(1, 10, sinkL, nil, nil, i) }
	burst = func(_, _ any, i int64) {
		for k := int64(0); k < 3; k++ {
			a.SendCall(2, Duration(10+k), sinkR, nil, nil, i*8+k)
		}
		if i%4 == 0 {
			a.SendCall(2, 10, echo, nil, nil, i)
		}
	}
	for i := 0; i < 200; i++ {
		a.ScheduleCall(Time(1+i), burst, nil, nil, int64(i))
	}
	p.RunUntil(5000)
	return right, left
}

// TestRingBackpressureDeterminism floods a capacity-2 ring pair and
// checks both that nothing is lost under sustained backpressure and
// that the delivery order is byte-identical to an uncontended run:
// the slow path may change *when* events cross, never *what order*
// they execute in.
func TestRingBackpressureDeterminism(t *testing.T) {
	tinyR, tinyL := ringFloodLogs(t, 2)
	bigR, bigL := ringFloodLogs(t, 1024)
	if len(tinyR) != 600 || len(tinyL) != 50 {
		t.Fatalf("flood delivered %d/%d events, want 600/50", len(tinyR), len(tinyL))
	}
	if fmt.Sprint(tinyR) != fmt.Sprint(bigR) || fmt.Sprint(tinyL) != fmt.Sprint(bigL) {
		t.Fatal("delivery order differs between ring capacities 2 and 1024")
	}
}

// TestRingHandoffAllocs gates the cross-shard handoff hot path at zero
// allocations per event: push into the pair ring, drain on the
// consumer side, fire, recycle — in both directions so the two shard
// pools stay balanced and the steady state is genuine.
//
//speedlight:allocgate sim.evRing.tryPush sim.evRing.tryPop sim.Parallel.pushRing sim.Parallel.processBatch
func TestRingHandoffAllocs(t *testing.T) {
	p := NewParallel(1, 2, 10)
	_, _ = p.Proc(1), p.Proc(2)
	p.finalize()
	sh0, sh1 := p.shards[0], p.shards[1]
	r01, r10 := sh0.out[1].ring, sh1.out[0].ring
	var sink int64
	fn := CallFn(func(_, _ any, i int64) { sink += i })
	at := Time(0)
	hop := func(src, dst *pshard, r *evRing, tgt int) {
		at++
		ev := src.pool.get()
		ev.at = at
		ev.src = int32(src.idx + 1)
		ev.owner = int32(dst.idx + 1)
		ev.cfn = fn
		ev.i = 1
		p.pushRing(src, r, ev, tgt)
		p.drainRing(dst, r)
		p.processBatch(dst, maxTime, 8)
	}
	for i := 0; i < 512; i++ {
		hop(sh0, sh1, r01, 1)
		hop(sh1, sh0, r10, 0)
	}
	avg := testing.AllocsPerRun(1000, func() {
		hop(sh0, sh1, r01, 1)
		hop(sh1, sh0, r10, 0)
	})
	if avg != 0 {
		t.Errorf("ring handoff allocates %v allocs/op, want 0", avg)
	}
	_ = sink
}

// TestSetShardLinksValidation covers the declared-link API's guard
// rails: bad links panic at declaration, duplicates keep the smallest
// lookahead, and late declarations are rejected.
func TestSetShardLinksValidation(t *testing.T) {
	mustPanic := func(name, frag string, f func()) {
		t.Helper()
		defer func() {
			r := recover()
			if r == nil {
				t.Fatalf("%s: no panic", name)
			}
			if !strings.Contains(fmt.Sprint(r), frag) {
				t.Fatalf("%s: panic %q does not mention %q", name, r, frag)
			}
		}()
		f()
	}
	p := NewParallel(1, 2, 10)
	mustPanic("range", "out of range", func() {
		p.SetShardLinks([]ShardLink{{From: -1, To: 1, Lookahead: 1}})
	})
	mustPanic("range-high", "out of range", func() {
		p.SetShardLinks([]ShardLink{{From: 0, To: 2, Lookahead: 1}})
	})
	mustPanic("self", "self shard link", func() {
		p.SetShardLinks([]ShardLink{{From: 1, To: 1, Lookahead: 1}})
	})
	mustPanic("negative", "negative lookahead", func() {
		p.SetShardLinks([]ShardLink{{From: 0, To: 1, Lookahead: -1}})
	})
	mustPanic("zero", "lookahead 0 on shard link 1->0", func() {
		p.SetShardLinks([]ShardLink{{From: 0, To: 1, Lookahead: 3}, {From: 1, To: 0, Lookahead: 0}})
	})

	// Duplicates keep the min: a delay-5 send is legal under the
	// 4-tick duplicate, and would violate the pair clock under the
	// 10-tick one.
	p2 := NewParallel(1, 2, 10)
	a, b := p2.Proc(1), p2.Proc(2)
	p2.SetShardLinks([]ShardLink{
		{From: 0, To: 1, Lookahead: 10},
		{From: 0, To: 1, Lookahead: 4},
		{From: 1, To: 0, Lookahead: 4},
	})
	var got []int64
	sink := CallFn(func(_, _ any, i int64) { got = append(got, i) })
	cross := CallFn(func(_, _ any, i int64) { a.SendCall(2, 5, sink, nil, nil, i) })
	a.ScheduleCall(1, cross, nil, nil, 7)
	_ = b
	p2.RunUntil(100)
	if len(got) != 1 || got[0] != 7 {
		t.Fatalf("delay-5 send under duplicate min-4 link: got %v, want [7]", got)
	}
	mustPanic("late", "after the first Run", func() {
		p2.SetShardLinks([]ShardLink{{From: 0, To: 1, Lookahead: 1}})
	})
}

// TestUndeclaredPairPanics proves a send on a pair outside the
// declared link set fails loudly instead of silently racing: the
// topology-derived link set is a contract, and placement drift that
// routes traffic over an undeclared pair is a bug.
func TestUndeclaredPairPanics(t *testing.T) {
	p := NewParallel(1, 2, 10)
	a, b := p.Proc(1), p.Proc(2)
	p.SetShardLinks([]ShardLink{{From: 0, To: 1, Lookahead: 10}})
	var rogue, fwd CallFn
	rogue = func(_, _ any, i int64) { b.SendCall(1, 10, rogue, nil, nil, i) }
	fwd = func(_, _ any, i int64) { a.SendCall(2, 10, rogue, nil, nil, i) }
	a.ScheduleCall(1, fwd, nil, nil, 0)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("undeclared 1->0 send did not panic")
		}
		if !strings.Contains(fmt.Sprint(r), "outside the declared shard-link set") {
			t.Fatalf("panic %q does not name the undeclared pair", r)
		}
	}()
	p.RunUntil(100)
}
