package emunet_test

// Acceptance tests for the epoch causal tracer against live campaigns:
// the reconstructed critical path must partition each epoch's
// completion latency exactly, and attribution must point at a
// deliberately injected straggler.

import (
	"strings"
	"testing"

	"speedlight/internal/dist"
	"speedlight/internal/emunet"
	"speedlight/internal/epochtrace"
	"speedlight/internal/sim"
	"speedlight/internal/topology"
)

// sixtyFourPortCampaign builds a 4x4 leaf-spine with 8 hosts per leaf:
// 4 leaves x (8 host + 4 uplink) ports + 4 spines x 4 downlinks = 64
// switch ports.
func sixtyFourPortCampaign(seed int64, mutate func(*emunet.Config)) campaignConfig {
	ls, err := topology.NewLeafSpine(topology.LeafSpineConfig{
		Leaves: 4, Spines: 4, HostsPerLeaf: 8,
		HostLinkLatency:   sim.Microsecond,
		FabricLinkLatency: sim.Microsecond,
	})
	if err != nil {
		panic(err)
	}
	return campaignConfig{
		topo:      ls.Topology,
		hosts:     ls.Topology.HostIDs(),
		seed:      seed,
		interval:  3 * sim.Microsecond,
		snapshots: 6,
		mutate:    mutate,
	}
}

// TestCriticalPathSumMatchesCompletionLatency runs a seeded 64-port
// campaign and checks the acceptance bound: for every traced epoch the
// critical-path segment durations sum to the epoch's completion
// latency within 1%. (The reconstruction actually guarantees an exact
// partition; the test asserts the stronger property and reports
// against the 1% bound.)
func TestCriticalPathSumMatchesCompletionLatency(t *testing.T) {
	art := runCampaign(t, sixtyFourPortCampaign(17, nil), 0)
	traces, err := epochtrace.ReadJSONL(strings.NewReader(art.epochs))
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) == 0 {
		t.Fatal("campaign produced no epoch traces")
	}
	for _, tr := range traces {
		dur, sum := tr.DurationNs(), tr.CriticalSumNs()
		tol := dur / 100
		if tol < 1 {
			tol = 1
		}
		if diff := sum - dur; diff > tol || diff < -tol {
			t.Errorf("epoch %d: critical-path sum %dns vs completion latency %dns (off by %dns, 1%% bound %dns)",
				tr.ID, sum, dur, diff, tol)
		}
		if sum != dur {
			t.Errorf("epoch %d: partition not exact: sum %dns != duration %dns", tr.ID, sum, dur)
		}
		if len(tr.Critical) == 0 && tr.Excluded == 0 {
			t.Errorf("epoch %d: completed epoch has no critical-path segments", tr.ID)
		}
	}
	// The fabric has 8 switches; a completed epoch's wavefront must
	// have touched all of them.
	if got := len(traces[0].Switches); got != 8 {
		t.Errorf("epoch %d wavefront covers %d switches, want 8", traces[0].ID, got)
	}
}

// TestCriticalPathAttributesInjectedStraggler makes one switch's
// control plane deliberately slow via CPServiceTimeFor and checks the
// rollup names it as the top critical-path contributor, with the time
// landing in the control-plane buckets.
func TestCriticalPathAttributesInjectedStraggler(t *testing.T) {
	const slow = topology.NodeID(2) // a leaf switch
	cc := sixtyFourPortCampaign(17, func(c *emunet.Config) {
		// A fast uniform control plane everywhere (5us/notification)
		// keeps the fabric itself out of the way; the straggler pays
		// 60x that on every notification. Recovery timers are pushed
		// out so the observer waits for the straggler instead of
		// retrying, which would smear attribution across switches.
		c.CPServiceTime = dist.Constant{V: 5_000}
		c.CPServiceTimeFor = func(node topology.NodeID) dist.Dist {
			if node == slow {
				return dist.Constant{V: 300_000}
			}
			return nil
		}
		c.RetryAfter = 100 * sim.Millisecond
		c.ExcludeAfter = 200 * sim.Millisecond
	})
	cc.snapshots = 4
	art := runCampaign(t, cc, 0)
	traces, err := epochtrace.ReadJSONL(strings.NewReader(art.epochs))
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) == 0 {
		t.Fatal("campaign produced no epoch traces")
	}
	r := epochtrace.NewRollup(traces)
	top := r.Top(1)
	if len(top) == 0 {
		t.Fatal("rollup has no switch attribution")
	}
	if top[0].Switch != int(slow) {
		t.Fatalf("top critical-path contributor is switch %d, want injected straggler %d\nrollup: %+v",
			top[0].Switch, slow, r.Switches)
	}
	// The injected delay is control-plane service time, so it must
	// surface in the cp buckets, not wavefront or wire.
	cp := top[0].CPQueueNs + top[0].CPServiceNs
	if cp <= top[0].WavefrontNs+top[0].WireNs {
		t.Errorf("straggler time not in control-plane buckets: cp=%dns wavefront=%dns wire=%dns",
			cp, top[0].WavefrontNs, top[0].WireNs)
	}
	// And the slowdown must dominate: the straggler should carry most
	// epochs' critical paths.
	if top[0].Epochs*2 < r.Epochs {
		t.Errorf("straggler on only %d of %d critical paths", top[0].Epochs, r.Epochs)
	}
}
