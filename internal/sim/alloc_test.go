package sim

import "testing"

// TestParallelSteadyStateAllocs: the sharded engine's schedule/drain
// cycle — parProc.sendAt into the shard's own queue, one solo run
// drained inline on the coordinator — must not allocate.
//
//speedlight:allocgate sim.Parallel.processBatch sim.parProc.sendAt
func TestParallelSteadyStateAllocs(t *testing.T) {
	p := NewParallel(1, 2, 100)
	pr := p.Proc(1)
	var sink int64
	fn := CallFn(func(_, _ any, i int64) { sink += i })
	for i := 0; i < 256; i++ {
		pr.AfterCall(1, fn, nil, nil, 1)
		p.RunFor(2)
	}
	avg := testing.AllocsPerRun(1000, func() {
		pr.AfterCall(1, fn, nil, nil, 1)
		p.RunFor(2)
	})
	if avg != 0 {
		t.Errorf("parallel AfterCall+RunFor allocates %v allocs/op, want 0", avg)
	}
	_ = sink
}
