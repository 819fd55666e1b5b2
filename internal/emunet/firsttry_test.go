package emunet

import (
	"fmt"
	"slices"
	"testing"

	"speedlight/internal/audit"
	"speedlight/internal/dist"
	"speedlight/internal/journal"
	"speedlight/internal/packet"
	"speedlight/internal/sim"
	"speedlight/internal/telemetry"
	"speedlight/internal/topology"
)

// stormFabric is the benchmark's snapshot_storm fabric with hostsPerLeaf
// hosts under each of eight leaves and four spines: at 28, a leaf has
// 32 ports (64 units) and a spine 8 (16 units).
func stormFabric(t *testing.T, hostsPerLeaf int) *topology.LeafSpine {
	t.Helper()
	ls, err := topology.NewLeafSpine(topology.LeafSpineConfig{
		Leaves: 8, Spines: 4, HostsPerLeaf: hostsPerLeaf,
		HostLinkLatency:   2 * sim.Microsecond,
		FabricLinkLatency: 2 * sim.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ls
}

// star is one switch with a host on each of its ports.
func star(t *testing.T, ports int) *topology.Topology {
	t.Helper()
	b := topology.NewBuilder()
	sw := b.AddSwitch(ports)
	for p := 0; p < ports; p++ {
		b.AttachHost(sw, p, sim.Microsecond)
	}
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

// runEpochs starts count snapshots gap apart, each with a 1 ms lead,
// and runs every gap out: with a 20 ms gap, the storm's cadence. after,
// when set, runs at the end of each snapshot's gap.
func runEpochs(t *testing.T, n *Network, count int, gap sim.Duration, after func(id packet.SeqID)) {
	t.Helper()
	for i := 0; i < count; i++ {
		id, err := n.ScheduleSnapshot(n.Engine().Now().Add(sim.Millisecond))
		if err != nil {
			t.Fatal(err)
		}
		n.RunFor(gap)
		if after != nil {
			after(id)
		}
	}
}

// completeEpochs checks that count snapshots completed consistent with
// every one of units results and no exclusion, and returns each one's
// latency from Begin, in microseconds.
func completeEpochs(t *testing.T, n *Network, count, units int) []float64 {
	t.Helper()
	var latUS []float64
	for _, g := range n.Snapshots() {
		if !g.Consistent || len(g.Excluded) != 0 || len(g.Results) != units {
			t.Errorf("epoch %d: consistent=%v excluded=%v results=%d of %d", g.ID, g.Consistent, g.Excluded, len(g.Results), units)
		}
		latUS = append(latUS, g.CompletedAt.Sub(g.ScheduledAt).Micros())
	}
	if len(latUS) != count {
		t.Fatalf("%d of %d epochs completed", len(latUS), count)
	}
	return latUS
}

// recoveries returns the run's re-initiations and observer retries.
func recoveries(reg *telemetry.Registry) (reinits, retries uint64) {
	for _, s := range reg.Gather() {
		switch s.Name {
		case "speedlight_cp_reinitiations_total":
			reinits = s.Value
		case "speedlight_obs_retries_total":
			retries = s.Value
		}
	}
	return reinits, retries
}

// TestStormCompletionRegimes pins how the benchmark's snapshot storm
// completes. Nothing is lost: a leaf has 64 units, and its control
// plane services their notifications one at a time at ~110 µs each (the
// Fig. 10 calibration), so after the 1 ms lead an epoch's results
// trickle out over ~7.3 ms. The derived RetryAfter (2 × that drain,
// ~14.6 ms) leaves room for it, so every epoch finishes on the protocol
// in ~8.5 ms with no re-initiation; under a fixed 5 ms it was retried
// and polled on every leaf and finished at 5 050 µs. With a 10 µs
// service time the drain is short, RetryAfter stays on its 5 ms floor
// and epochs take ~1.7 ms, also first-try. The 16-unit spines finish
// first-try in both.
func TestStormCompletionRegimes(t *testing.T) {
	const epochs = 12
	run := func(service dist.Dist, retryAfter sim.Duration) []float64 {
		reg := telemetry.NewRegistry()
		n := newNet(t, func(c *Config) {
			c.Topo = stormFabric(t, 28).Topology
			c.CPServiceTime = service
			c.Registry = reg
		})
		if n.cfg.RetryAfter != retryAfter {
			t.Errorf("RetryAfter = %v, want %v", n.cfg.RetryAfter, retryAfter)
		}
		runEpochs(t, n, epochs, 20*sim.Millisecond, nil)
		lat := completeEpochs(t, n, epochs, 576)
		if reinits, retries := recoveries(reg); reinits != 0 || retries != 0 {
			t.Errorf("%d re-initiations and %d retries on a loss-free run, want 0", reinits, retries)
		}
		return lat
	}

	mean := defaultService().Mean()
	lat := run(nil, 2*sim.Duration(64*mean)) // the default, ~110 µs per notification
	for i, l := range lat {
		if l < 7500 || l > 10_000 {
			t.Errorf("default service: epoch %d took %v µs, want the leaves' drain, 7 500–10 000", i+1, l)
		}
	}
	t.Logf("default service: epoch latencies %v µs", lat)

	lat = run(dist.Constant{V: 10_000}, 5*sim.Millisecond)
	for i, l := range lat {
		if l >= 5000 {
			t.Errorf("10 µs service: epoch %d took %v µs, want under the 5 ms RetryAfter", i+1, l)
		}
	}
	t.Logf("10 µs service: epoch latencies %v µs", lat)
}

// defaultService is Config's default CPServiceTime.
func defaultService() dist.Dist {
	var c Config
	c.Topo = &topology.Topology{}
	c.setDefaults()
	return c.CPServiceTime
}

// TestDerivedRecoveryTimers is the table of Config's recovery-timer
// defaults: RetryAfter = max(5 ms, 2 × the widest control plane's
// drain), ExcludeAfter = max(50 ms, 2 × RetryAfter), explicit and
// negative values kept.
func TestDerivedRecoveryTimers(t *testing.T) {
	mean := defaultService().Mean()
	drain := func(units int, perNotif float64) sim.Duration { return sim.Duration(float64(units) * perNotif) }
	fabric, storm, wide := stormFabric(t, 4), stormFabric(t, 28).Topology, star(t, 256)
	cases := []struct {
		name           string
		topo           *topology.Topology
		mod            func(*Config)
		retry, exclude sim.Duration
	}{
		{"fabric 8-port leaf", fabric.Topology, nil, 5 * sim.Millisecond, 50 * sim.Millisecond},
		{"storm 64-unit leaf", storm, nil, 2 * drain(64, mean), 50 * sim.Millisecond},
		{"256-port star", wide, nil, 2 * drain(512, mean), 4 * drain(512, mean)},
		{"slow control plane", fabric.Topology, func(c *Config) {
			c.CPServiceTimeFor = func(node topology.NodeID) dist.Dist {
				if node == fabric.Spines[1] {
					return dist.Constant{V: 300_000}
				}
				return nil
			}
		}, 2 * drain(16, 300_000), 50 * sim.Millisecond},
		{"explicit retry", storm, func(c *Config) { c.RetryAfter = 2 * sim.Millisecond },
			2 * sim.Millisecond, 50 * sim.Millisecond},
		{"explicit both", wide, func(c *Config) { c.RetryAfter, c.ExcludeAfter = 3*sim.Millisecond, 7*sim.Millisecond },
			3 * sim.Millisecond, 7 * sim.Millisecond},
		{"disabled retry", wide, func(c *Config) { c.RetryAfter = -1 }, -1, 50 * sim.Millisecond},
		{"disabled both", storm, func(c *Config) { c.RetryAfter, c.ExcludeAfter = -1, -1 }, -1, -1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := Config{Topo: tc.topo}
			if tc.mod != nil {
				tc.mod(&c)
			}
			c.setDefaults()
			if c.RetryAfter != tc.retry || c.ExcludeAfter != tc.exclude {
				t.Errorf("RetryAfter, ExcludeAfter = %v, %v; want %v, %v", c.RetryAfter, c.ExcludeAfter, tc.retry, tc.exclude)
			}
		})
	}
}

// TestWideStarsCompleteWithoutRecovery runs stars of 64, 128 and 256
// ports on the default timers. A 256-port switch needs ~58 ms to
// service one epoch's 512 notifications, past a fixed 50 ms
// ExcludeAfter; before the timers were derived a 5 ms retry's poll
// rescued it. Every epoch must now complete on notification service
// alone: all units, no exclusion, no retry.
func TestWideStarsCompleteWithoutRecovery(t *testing.T) {
	for _, ports := range []int{64, 128, 256} {
		t.Run(fmt.Sprint(ports), func(t *testing.T) {
			const epochs = 3
			reg := telemetry.NewRegistry()
			n := newNet(t, func(c *Config) { c.Topo, c.Registry = star(t, ports), reg })
			runEpochs(t, n, epochs, n.cfg.RetryAfter, nil)
			lat := completeEpochs(t, n, epochs, 2*ports)
			if reinits, retries := recoveries(reg); reinits != 0 || retries != 0 {
				t.Errorf("%d re-initiations and %d retries on a loss-free run, want 0", reinits, retries)
			}
			t.Logf("RetryAfter %v, ExcludeAfter %v: epoch latencies %v µs", n.cfg.RetryAfter, n.cfg.ExcludeAfter, lat)
		})
	}
}

// TestRetryRecoversDroppedNotifications keeps retry what §6 says it
// is, loss recovery: on the storm fabric with a 16-deep notification
// socket every leaf drops most of an epoch's 64 notifications, and
// each epoch must complete consistent through exactly one retry per
// dropping switch, audited clean, with every pooled packet home.
func TestRetryRecoversDroppedNotifications(t *testing.T) {
	const epochs = 6
	ls := stormFabric(t, 28)
	n := newNet(t, func(c *Config) {
		c.Topo = ls.Topology
		c.NotifCapacity = 16
		c.Journal = journal.NewSet(0)
	})
	dropped := map[packet.SeqID][]topology.NodeID{}
	seen := make([]uint64, len(n.sws))
	runEpochs(t, n, epochs, 20*sim.Millisecond, func(id packet.SeqID) {
		for i, es := range n.sws {
			if d := es.DP.NotifDrops(); d != seen[i] {
				dropped[id] = append(dropped[id], es.Node)
				seen[i] = d
			}
		}
	})
	completeEpochs(t, n, epochs, 576)

	retried := map[packet.SeqID][]topology.NodeID{}
	for _, ev := range n.Journal().Events() {
		if ev.Kind == journal.KindObsRetry {
			retried[ev.SnapshotID] = append(retried[ev.SnapshotID], topology.NodeID(ev.Switch))
		}
	}
	for _, g := range n.Snapshots() {
		if !slices.Equal(dropped[g.ID], ls.Leaves) {
			t.Errorf("epoch %d: notifications dropped at %v, want the leaves %v", g.ID, dropped[g.ID], ls.Leaves)
		}
		if !slices.Equal(retried[g.ID], dropped[g.ID]) {
			t.Errorf("epoch %d: retried %v, want one retry per dropping switch %v", g.ID, retried[g.ID], dropped[g.ID])
		}
	}

	rep := n.Audit()
	for id, v := range verdictByID(t, rep) {
		if v.Kind != audit.Consistent {
			t.Errorf("snapshot %d: %s (%s), want CONSISTENT", id, v.Kind, v.Cause)
		}
	}
	if rep.Disagreements != 0 || rep.Truncated {
		t.Errorf("audit: %d disagreements, truncated %v", rep.Disagreements, rep.Truncated)
	}
	if err := n.LeakCheck(); err != nil {
		t.Error(err)
	}
}
