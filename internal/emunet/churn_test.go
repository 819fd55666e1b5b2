package emunet_test

// Churn-hardened snapshot conformance: the seeded scenario suite from
// DESIGN.md §13. Each scenario scripts runtime fabric churn — switches
// and links leaving and rejoining mid-campaign — through the
// reconciliation controller, and every scenario must preserve the full
// determinism contract (byte-identical journal, audit report, snapshot
// set, epoch traces, and churn classification across engines and shard
// counts), end audit-sound (zero silent disagreements), and leak no
// pooled packets through any teardown path.

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"speedlight/internal/emunet"
	"speedlight/internal/journal"
	"speedlight/internal/packet"
	"speedlight/internal/reconcile"
	"speedlight/internal/sim"
	"speedlight/internal/snapstore"
	"speedlight/internal/topology"
)

// churnCampaign is the scenario suite's fixed fabric: the testbed
// 4x2 leaf-spine with wire loss, traffic stopped early enough for the
// drain to quiesce (leak checks need a quiet fabric).
func churnCampaign(seed int64) (campaignConfig, *topology.LeafSpine) {
	ls, err := topology.NewLeafSpine(topology.LeafSpineConfig{
		Leaves: 4, Spines: 2, HostsPerLeaf: 2,
		HostLinkLatency:   sim.Microsecond,
		FabricLinkLatency: sim.Microsecond,
	})
	if err != nil {
		panic(err)
	}
	return campaignConfig{
		topo:       ls.Topology,
		hosts:      ls.Topology.HostIDs(),
		seed:       seed,
		interval:   3 * sim.Microsecond,
		snapshots:  4,
		trafficFor: 16 * sim.Millisecond,
		leakCheck:  true,
		mutate: func(c *emunet.Config) {
			c.ChannelState = true
			c.LinkLossProb = 0.02
		},
	}, ls
}

// uplinksOf returns the fabric links touching one switch.
func uplinksOf(links []reconcile.Link, node topology.NodeID) []reconcile.Link {
	var out []reconcile.Link
	for _, l := range links {
		if l.A.Node == node || l.B.Node == node {
			out = append(out, l)
		}
	}
	return out
}

// TestChurnScenarioEquivalence is the seeded churn scenario suite:
// four canonical churn shapes, each replayed serially and at shard
// counts {1,2,4,8}. Every run must produce byte-identical artifacts,
// classify every churn event (clean / excluded / inconsistent-caught)
// with zero silent disagreements, and finish with every pooled packet
// back in a free list.
func TestChurnScenarioEquivalence(t *testing.T) {
	_, ls := churnCampaign(0)
	cases := []struct {
		name  string
		churn func(c *reconcile.Controller)
	}{
		{
			// Both spines rebooted one after the other; the fabric keeps
			// forwarding through the survivor.
			name: "rolling_upgrade",
			churn: func(c *reconcile.Controller) {
				reconcile.RollingUpgrade(ls.Spines, 3*sim.Millisecond,
					2*sim.Millisecond, 4*sim.Millisecond).Schedule(c)
			},
		},
		{
			// A seeded storm of link drains and restores across the
			// whole fabric.
			name: "link_flap_storm",
			churn: func(c *reconcile.Controller) {
				cr := rand.New(rand.NewSource(99))
				reconcile.LinkFlapStorm(c.Links(), cr, 3*sim.Millisecond, 8,
					1200*sim.Microsecond, 900*sim.Microsecond).Schedule(c)
			},
		},
		{
			// Every uplink of one leaf cut at once — the leaf and its
			// hosts are severed from the fabric — then healed.
			name: "partition_and_heal",
			churn: func(c *reconcile.Controller) {
				cut := uplinksOf(c.Links(), ls.Leaves[0])
				reconcile.PartitionAndHeal(cut, 4*sim.Millisecond,
					4*sim.Millisecond).Schedule(c)
			},
		},
		{
			// A leaf and a spine deprovisioned together, then brought
			// back one at a time with config re-pushes.
			name: "provisioning_ramp",
			churn: func(c *reconcile.Controller) {
				nodes := []topology.NodeID{ls.Leaves[3], ls.Spines[1]}
				reconcile.ProvisioningRamp(nodes, 3*sim.Millisecond,
					3*sim.Millisecond).Schedule(c)
			},
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			cc, _ := churnCampaign(42)
			cc.churn = tc.churn
			serial := runCampaign(t, cc, 0)
			if serial.churn == "" {
				t.Fatal("scenario journaled no churn events")
			}
			if serial.completed == 0 {
				t.Fatal("no snapshot completed under churn")
			}
			// Audit soundness: detected damage is fine, silent damage
			// is not.
			if serial.disagreements != 0 || serial.tally.SilentDisagreement != 0 {
				t.Fatalf("silent disagreement under churn: audit=%d tally=%s",
					serial.disagreements, serial.tally)
			}
			// Every churn event must be classified — one line per event.
			events := strings.Count(serial.churn, "\n")
			tal := serial.tally
			if got := tal.Clean + tal.Excluded + tal.InconsistentCaught + tal.SilentDisagreement; got != events {
				t.Fatalf("classified %d of %d churn events (%s)", got, events, tal)
			}
			for _, shards := range []int{1, 2, 4, 8} {
				shards := shards
				t.Run(fmt.Sprintf("shards%d", shards), func(t *testing.T) {
					got := runCampaign(t, cc, shards)
					diffArtifacts(t, fmt.Sprintf("%s shards=%d", tc.name, shards), serial, got)
				})
			}
		})
	}
}

// TestChurnSnapstoreDeparture drives a switch departure through the
// snapshot-history store: a spine leaves mid-retention-window and never
// returns, so its units flow through snapstore's departure-delta path
// while eviction hides epochs the retained ones reconstruct through.
// Every retained epoch's
// reconstruction from the final view must equal the state captured when
// that epoch was ingested, and the departed units must read absent from
// every post-departure cut.
func TestChurnSnapstoreDeparture(t *testing.T) {
	cc, ls := churnCampaign(7)
	cc.snapshots = 7
	gone := ls.Spines[1]
	cc.churn = func(c *reconcile.Controller) {
		sc := &reconcile.Scenario{Name: "departure", Steps: []reconcile.Step{{
			At: 9 * sim.Millisecond, Label: "spine departs for good",
			Mutate: func(s *reconcile.Spec) { s.SetSwitchDown(gone, true) },
		}}}
		sc.Schedule(c)
	}

	set := journal.NewSet(0)
	cfg := emunet.Config{
		Topo: cc.topo, Seed: cc.seed, MaxID: 64, WrapAround: true, Journal: set,
	}
	cc.mutate(&cfg)
	n, err := emunet.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng := n.Engine()
	ctrl, err := reconcile.New(reconcile.Config{Fabric: n, Proc: eng.Proc(sim.GlobalDomain)})
	if err != nil {
		t.Fatal(err)
	}
	cc.churn(ctrl)
	tr := eng.NewRand()
	cutoff := eng.Now().Add(cc.trafficFor)
	eng.NewTicker(cc.interval, func() {
		if eng.Now() >= cutoff {
			return
		}
		src := cc.hosts[tr.Intn(len(cc.hosts))]
		dst := cc.hosts[tr.Intn(len(cc.hosts))]
		if src == dst {
			return
		}
		pkt := n.NewPacket()
		pkt.DstHost = uint32(dst)
		pkt.Size = 200
		n.InjectFromHost(src, pkt)
	})
	n.RunFor(2 * sim.Millisecond)
	for i := 0; i < cc.snapshots; i++ {
		n.RunFor(2 * sim.Millisecond)
		if _, err := n.ScheduleSnapshot(eng.Now().Add(sim.Millisecond)); err != nil {
			t.Fatalf("scheduling snapshot %d: %v", i, err)
		}
	}
	n.RunFor(80 * sim.Millisecond)

	snaps := n.Snapshots()
	if len(snaps) < 4 {
		t.Fatalf("campaign completed %d snapshots, want at least 4", len(snaps))
	}

	// Small retention and a long checkpoint cadence: eviction repeatedly
	// lands on non-checkpoint epochs.
	store := snapstore.New(snapstore.Config{Retention: 3, CheckpointEvery: 5})
	type capture struct {
		regs    []snapstore.Reg
		present bool // departed spine's units present in this cut
	}
	captured := make(map[packet.SeqID]capture)
	presentAt := func(st *snapstore.State) bool {
		for _, u := range st.Units {
			if u.Node == gone {
				if _, ok := st.Value(u); ok {
					return true
				}
			}
		}
		return false
	}
	var sawPresent, sawAbsent bool
	for _, g := range snaps {
		store.Ingest(g, 0)
		st, err := store.View().State(g.ID)
		if err != nil {
			t.Fatalf("state at ingest of epoch %d: %v", g.ID, err)
		}
		p := presentAt(st)
		captured[g.ID] = capture{regs: append([]snapstore.Reg(nil), st.Regs...), present: p}
		if p {
			sawPresent = true
		} else {
			sawAbsent = true
		}
	}
	if !sawPresent || !sawAbsent {
		t.Fatalf("departure not observed: present=%v absent=%v (want both)", sawPresent, sawAbsent)
	}

	// Reconstruction equivalence: every retained epoch rebuilt from the
	// final view — through whatever evicted epochs its chain still holds
	// — must match its at-ingest materialization exactly. The chain's
	// own invariant (it starts at a base) is not visible from here;
	// snapstore's TestStoreRetention and TestChainBound hold it.
	final := store.View()
	for _, e := range final.Epochs() {
		st, err := final.State(e.ID)
		if err != nil {
			t.Fatalf("reconstructing retained epoch %d: %v", e.ID, err)
		}
		want := captured[e.ID]
		if len(st.Regs) != len(want.regs) {
			t.Fatalf("epoch %d: reconstructed %d regs, ingested %d", e.ID, len(st.Regs), len(want.regs))
		}
		for i := range st.Regs {
			if st.Regs[i] != want.regs[i] {
				t.Fatalf("epoch %d unit %d: reconstructed %+v, ingested %+v",
					e.ID, i, st.Regs[i], want.regs[i])
			}
		}
		if p := presentAt(st); p != want.present {
			t.Fatalf("epoch %d: departed-switch presence %v, want %v", e.ID, p, want.present)
		}
	}
	if err := n.LeakCheck(); err != nil {
		t.Error(err)
	}
}

// TestChurnEpochTraceExact asserts the causal tracer's exactness
// invariant survives churn: for every epoch reconstructed from a
// campaign where switches vanished mid-wavefront, the critical-path
// segments still partition the epoch's duration exactly.
func TestChurnEpochTraceExact(t *testing.T) {
	cc, ls := churnCampaign(11)
	cc.churn = func(c *reconcile.Controller) {
		// Bounce a spine and a leaf across the snapshot windows so
		// wavefronts lose devices mid-flight.
		reconcile.RollingUpgrade([]topology.NodeID{ls.Spines[0], ls.Leaves[2]},
			4*sim.Millisecond, 1500*sim.Microsecond, 3*sim.Millisecond).Schedule(c)
	}

	set := journal.NewSet(0)
	cfg := emunet.Config{
		Topo: cc.topo, Seed: cc.seed, MaxID: 64, WrapAround: true, Journal: set,
	}
	cc.mutate(&cfg)
	n, err := emunet.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng := n.Engine()
	ctrl, err := reconcile.New(reconcile.Config{Fabric: n, Proc: eng.Proc(sim.GlobalDomain)})
	if err != nil {
		t.Fatal(err)
	}
	cc.churn(ctrl)
	ctrl.Start()
	tr := eng.NewRand()
	cutoff := eng.Now().Add(cc.trafficFor)
	eng.NewTicker(cc.interval, func() {
		if eng.Now() >= cutoff {
			return
		}
		src := cc.hosts[tr.Intn(len(cc.hosts))]
		dst := cc.hosts[tr.Intn(len(cc.hosts))]
		if src == dst {
			return
		}
		pkt := n.NewPacket()
		pkt.DstHost = uint32(dst)
		pkt.Size = 400
		n.InjectFromHost(src, pkt)
	})
	n.RunFor(2 * sim.Millisecond)
	for i := 0; i < cc.snapshots; i++ {
		n.RunFor(2 * sim.Millisecond)
		if _, err := n.ScheduleSnapshot(eng.Now().Add(sim.Millisecond)); err != nil {
			t.Fatalf("scheduling snapshot %d: %v", i, err)
		}
	}
	n.RunFor(80 * sim.Millisecond)

	traces := n.EpochTraces()
	if len(traces) == 0 {
		t.Fatal("churn campaign produced no epoch traces")
	}
	churned := 0
	for _, ev := range set.Events() {
		if ev.Kind == journal.KindChurn {
			churned++
		}
	}
	if churned == 0 {
		t.Fatal("campaign journaled no churn events")
	}
	for _, tr := range traces {
		if got, want := tr.CriticalSumNs(), tr.DurationNs(); got != want {
			t.Errorf("epoch %d: critical-path sum %d ns != duration %d ns (excluded=%d retries=%d)",
				tr.ID, got, want, tr.Excluded, tr.Retries)
		}
	}
	if err := n.LeakCheck(); err != nil {
		t.Error(err)
	}
}
