package sim

import (
	"strings"
	"sync/atomic"
	"testing"

	"speedlight/internal/telemetry"
)

// fakeClock is a deterministic, goroutine-safe wall-clock stand-in:
// every read advances it by a fixed step, so any timed region measures
// a positive duration without the test depending on real time.
func fakeClock() func() int64 {
	var t int64
	return func() int64 { return atomic.AddInt64(&t, 1000) }
}

func TestBarrierProfileDisabledByDefault(t *testing.T) {
	p := NewParallel(1, 4, 100)
	runScenario(p, 6, 100)
	if prof := p.BarrierProfile(); prof != nil {
		t.Fatalf("profile without EnableBarrierMetrics = %+v, want nil", prof)
	}
}

func TestBarrierProfileAccountsRounds(t *testing.T) {
	p := NewParallel(7, 4, 100)
	reg := telemetry.NewRegistry()
	p.EnableBarrierMetrics(reg, fakeClock())
	runScenario(p, 9, 100)

	prof := p.BarrierProfile()
	if len(prof) != 4 {
		t.Fatalf("profile has %d shards, want 4", len(prof))
	}
	var rounds uint64
	var work, wait int64
	for i, st := range prof {
		if st.Shard != i {
			t.Errorf("profile[%d].Shard = %d", i, st.Shard)
		}
		if st.WorkNs < 0 || st.WaitNs < 0 {
			t.Errorf("shard %d negative accounting: %+v", i, st)
		}
		rounds += st.Rounds
		work += st.WorkNs
		wait += st.WaitNs
	}
	if rounds == 0 {
		t.Fatal("no rounds accounted")
	}
	if work == 0 {
		t.Fatal("no work time accounted")
	}
	// The fake clock gives multi-shard rounds a longer wall duration
	// than any single worker's slice, so some wait must appear.
	if wait == 0 {
		t.Fatal("no barrier wait accounted")
	}

	var haveWork, haveWait bool
	for _, s := range reg.Gather() {
		if strings.HasPrefix(s.FullName(), "speedlight_sim_round_work_ns{") && s.Value > 0 {
			haveWork = true
		}
		if strings.HasPrefix(s.FullName(), "speedlight_sim_barrier_wait_ns{") && s.Value > 0 {
			haveWait = true
		}
	}
	if !haveWork || !haveWait {
		t.Fatalf("registry missing barrier counters (work=%v wait=%v)", haveWork, haveWait)
	}
}

// TestBarrierMetricsPreserveDeterminism: the profiler observes the
// engine but must not perturb it — the event log with metrics enabled
// is byte-identical to the serial reference.
func TestBarrierMetricsPreserveDeterminism(t *testing.T) {
	const domains = 9
	const seed = 77
	const lookahead = Duration(100)
	ref := formatRecords(runScenario(NewEngine(seed), domains, lookahead))
	p := NewParallel(seed, 4, lookahead)
	p.EnableBarrierMetrics(telemetry.NewRegistry(), fakeClock())
	if got := formatRecords(runScenario(p, domains, lookahead)); got != ref {
		t.Fatal("event log diverges from serial when barrier metrics are on")
	}
}

// TestBarrierProfileAccountsSoloRuns: with events on one shard only the
// coordinator drains it inline and never starts a worker, so the solo
// run's own accounting is all that makes the work visible — on that
// shard, with no wait booked and nothing on any other shard.
func TestBarrierProfileAccountsSoloRuns(t *testing.T) {
	p := NewParallel(3, 3, 100)
	reg := telemetry.NewRegistry()
	p.EnableBarrierMetrics(reg, fakeClock())
	pr := p.Proc(2) // default placement: shard 1
	var chain func()
	left := 50
	chain = func() {
		if left--; left > 0 {
			pr.After(250, chain) // steps past the 100-tick solo bound
		}
	}
	pr.Schedule(10, chain)
	p.Run()

	for _, st := range p.BarrierProfile() {
		if st.Shard == 1 {
			if st.WorkNs <= 0 || st.Rounds == 0 || st.WaitNs != 0 {
				t.Errorf("busy shard: %+v, want work and runs and no wait", st)
			}
		} else if st != (BarrierShardStats{Shard: st.Shard}) {
			t.Errorf("idle shard has accounting: %+v", st)
		}
	}
	for _, s := range reg.Gather() {
		if name := s.FullName(); strings.HasPrefix(name, "speedlight_sim_") {
			if want := name == `speedlight_sim_round_work_ns{shard="1"}`; (s.Value > 0) != want {
				t.Errorf("%s = %v, want >0 only for the busy shard's work counter", name, s.Value)
			}
		}
	}
}
