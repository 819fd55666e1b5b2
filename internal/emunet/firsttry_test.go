package emunet

import (
	"testing"

	"speedlight/internal/dist"
	"speedlight/internal/sim"
	"speedlight/internal/telemetry"
	"speedlight/internal/topology"
)

// TestStormCompletionRegimes pins why the benchmark's snapshot storm
// never completes an epoch first-try (ROADMAP item 1a). Nothing is
// lost: a leaf has 64 units, the control plane services their
// notifications one at a time at ~110 µs each (the Fig. 10
// calibration), so an epoch's results trickle in over ~7 ms — past
// RetryAfter (5 ms). The recovery tick then re-initiates the eight
// leaves and Polls them, and Poll reads all 64 registers in zero
// virtual time, so every epoch finishes at RetryAfter plus one observer
// delivery, 5 050 µs. Make the service time 10 µs and the same fabric
// finishes every epoch on the protocol, well inside RetryAfter, with
// no re-initiation at all. The 16-unit spines finish first-try in both.
func TestStormCompletionRegimes(t *testing.T) {
	const epochs = 12
	run := func(service dist.Dist) (reinits uint64, latUS []float64) {
		ls, err := topology.NewLeafSpine(topology.LeafSpineConfig{
			Leaves: 8, Spines: 4, HostsPerLeaf: 28,
			HostLinkLatency:   2 * sim.Microsecond,
			FabricLinkLatency: 2 * sim.Microsecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		reg := telemetry.NewRegistry()
		n, err := New(Config{
			Topo: ls.Topology, Seed: 1,
			MaxID: 256, WrapAround: true,
			CPServiceTime: service,
			Registry:      reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		eng := n.Engine()
		tick := eng.NewTicker(20*sim.Millisecond, func() {
			if _, err := n.ScheduleSnapshot(eng.Now().Add(sim.Millisecond)); err != nil {
				t.Errorf("ScheduleSnapshot: %v", err)
			}
		})
		n.RunFor(epochs * 20 * sim.Millisecond)
		tick.Stop()
		n.RunFor(20 * sim.Millisecond)
		for _, g := range n.Snapshots() {
			if !g.Consistent || len(g.Excluded) != 0 || len(g.Results) != 576 {
				t.Errorf("epoch %d: consistent=%v excluded=%v results=%d", g.ID, g.Consistent, g.Excluded, len(g.Results))
			}
			latUS = append(latUS, g.CompletedAt.Sub(g.ScheduledAt).Micros())
		}
		if len(latUS) != epochs {
			t.Fatalf("%d of %d epochs completed", len(latUS), epochs)
		}
		return reg.Counter("speedlight_cp_reinitiations_total", "").Value(), latUS
	}

	reinits, lat := run(nil) // the default, ~110 µs per notification
	if reinits != 8*epochs {
		t.Errorf("default service: %d re-initiations, want %d (eight leaves per epoch)", reinits, 8*epochs)
	}
	for i, l := range lat {
		if l != 5050 {
			t.Errorf("default service: epoch %d took %v µs, want 5050 (RetryAfter + one observer delivery)", i+1, l)
		}
	}

	reinits, lat = run(dist.Constant{V: 10_000})
	if reinits != 0 {
		t.Errorf("10 µs service: %d re-initiations, want 0", reinits)
	}
	for i, l := range lat {
		if l >= 5000 {
			t.Errorf("10 µs service: epoch %d took %v µs, want under RetryAfter", i+1, l)
		}
	}
	t.Logf("10 µs service: epoch latencies %v µs", lat)
}
