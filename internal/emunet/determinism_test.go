package emunet_test

// Determinism-equivalence conformance: the parallel sharded engine must
// be indistinguishable from the serial reference engine at the level of
// every artifact the system can emit. For one seed, the flight-recorder
// journal (JSONL), the consistency-audit report (JSON), and the full
// snapshot set (JSON) must be byte-identical across engines, shard
// counts, and GOMAXPROCS settings. See DESIGN.md ("Parallel
// simulation") for the contract that makes this possible.

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"speedlight/internal/emunet"
	"speedlight/internal/epochtrace"
	"speedlight/internal/export"
	"speedlight/internal/journal"
	"speedlight/internal/reconcile"
	"speedlight/internal/sim"
	"speedlight/internal/topology"
)

// The reconciliation controller drives churn through this interface;
// losing conformance here breaks every churn scenario.
var _ reconcile.Fabric = (*emunet.Network)(nil)

// artifacts holds one campaign's complete serialized output.
type artifacts struct {
	journal   string // flight-recorder JSONL
	audit     string // audit report JSON
	snapshots string // snapshot set JSON
	epochs    string // reconstructed epoch-trace JSONL
	churn     string // churn classification, one line per churn event
	// disagreements is the audit's count of snapshots the observer
	// published as consistent but the replay proved broken.
	disagreements int
	completed     int // snapshots the observer assembled
	tally         reconcile.Tally
}

// campaignConfig fixes everything about a conformance campaign except
// the engine choice.
type campaignConfig struct {
	topo      *topology.Topology
	hosts     []topology.HostID
	seed      int64
	interval  sim.Duration // traffic injection period
	snapshots int
	mutate    func(*emunet.Config) // fault-schedule knobs
	// churn, when set, is handed a fresh reconciliation controller
	// before the campaign starts; it schedules the scenario's steps
	// (any randomness must come from a source seeded inside the
	// callback so every engine replays the same schedule).
	churn func(c *reconcile.Controller)
	// trafficFor stops traffic injection after this much sim time
	// (zero = inject for the whole campaign) so the fabric can
	// quiesce and the pooled-packet leak check is meaningful.
	trafficFor sim.Duration
	leakCheck  bool
}

// runCampaign drives one full campaign — warm-up traffic, a snapshot
// series, drain — and serializes every artifact.
func runCampaign(t testing.TB, cc campaignConfig, shards int) artifacts {
	t.Helper()
	set := journal.NewSet(0)
	cfg := emunet.Config{
		Topo:       cc.topo,
		Seed:       cc.seed,
		Shards:     shards,
		MaxID:      64,
		WrapAround: true,
		Journal:    set,
	}
	if cc.mutate != nil {
		cc.mutate(&cfg)
	}
	n, err := emunet.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng := n.Engine()
	var ctrl *reconcile.Controller
	if cc.churn != nil {
		ctrl, err = reconcile.New(reconcile.Config{
			Fabric: n,
			Proc:   eng.Proc(sim.GlobalDomain),
		})
		if err != nil {
			t.Fatal(err)
		}
		cc.churn(ctrl)
		ctrl.Start() // periodic watcher covers drift between steps
	}
	tr := eng.NewRand()
	var seq uint16
	var cutoff sim.Time
	if cc.trafficFor > 0 {
		cutoff = eng.Now().Add(cc.trafficFor)
	}
	if len(cc.hosts) > 1 {
		eng.NewTicker(cc.interval, func() {
			if cutoff != 0 && eng.Now() >= cutoff {
				return
			}
			src := cc.hosts[tr.Intn(len(cc.hosts))]
			dst := cc.hosts[tr.Intn(len(cc.hosts))]
			if src == dst {
				return
			}
			seq++
			cos := 0
			if cfg.NumCoS > 1 {
				cos = tr.Intn(cfg.NumCoS)
			}
			// Pooled packets (not &packet.Packet{} literals) so the
			// post-drain leak check covers the data path too.
			pkt := n.NewPacket()
			pkt.DstHost = uint32(dst)
			pkt.SrcPort = 1000 + seq
			pkt.DstPort = 80
			pkt.Proto = 6
			pkt.Size = uint32(100 + tr.Intn(1400))
			pkt.CoS = uint8(cos)
			n.InjectFromHost(src, pkt)
		})
	}
	n.RunFor(2 * sim.Millisecond)
	for i := 0; i < cc.snapshots; i++ {
		n.RunFor(2 * sim.Millisecond)
		if _, err := n.ScheduleSnapshot(eng.Now().Add(sim.Millisecond)); err != nil {
			t.Fatalf("scheduling snapshot %d: %v", i, err)
		}
	}
	n.RunFor(80 * sim.Millisecond)

	rep := n.Audit()
	var jb, ab, sb, eb bytes.Buffer
	if err := journal.WriteJSONL(&jb, set.Events()); err != nil {
		t.Fatal(err)
	}
	if err := rep.WriteJSON(&ab); err != nil {
		t.Fatal(err)
	}
	if err := export.SnapshotsJSON(&sb, n.Snapshots()); err != nil {
		t.Fatal(err)
	}
	if err := epochtrace.WriteJSONL(&eb, n.EpochTraces()); err != nil {
		t.Fatal(err)
	}
	var cb bytes.Buffer
	var tally reconcile.Tally
	if cc.churn != nil {
		cs := reconcile.Classify(set.Events(), rep)
		tally = reconcile.TallyOutcomes(cs)
		for _, c := range cs {
			fmt.Fprintf(&cb, "%d %s sw=%d port=%d snaps=%v %s\n",
				c.Event.AtNs, c.Op, c.Event.Switch, c.Event.Port, c.Snapshots, c.Outcome)
		}
		if cs := len(ctrl.Log()); cs == 0 {
			t.Error("churn campaign applied no reconciliation ops")
		}
	}
	if cc.leakCheck {
		if err := n.LeakCheck(); err != nil {
			t.Errorf("shards=%d: %v (churn drops=%d)", shards, err, n.ChurnDrops())
		}
	}
	return artifacts{
		journal:       jb.String(),
		audit:         ab.String(),
		snapshots:     sb.String(),
		epochs:        eb.String(),
		churn:         cb.String(),
		disagreements: rep.Disagreements,
		completed:     len(n.Snapshots()),
		tally:         tally,
	}
}

// diffArtifacts reports the first divergence between two campaigns'
// outputs, with a little context rather than two megabyte blobs.
func diffArtifacts(t *testing.T, name string, want, got artifacts) {
	t.Helper()
	check := func(kind, w, g string) {
		if w == g {
			return
		}
		i := 0
		for i < len(w) && i < len(g) && w[i] == g[i] {
			i++
		}
		lo := i - 120
		if lo < 0 {
			lo = 0
		}
		end := func(s string) int {
			if i+120 < len(s) {
				return i + 120
			}
			return len(s)
		}
		t.Errorf("%s: %s diverges at byte %d\nserial:   ...%s...\nparallel: ...%s...",
			name, kind, i, w[lo:end(w)], g[lo:end(g)])
	}
	check("journal", want.journal, got.journal)
	check("audit report", want.audit, got.audit)
	check("snapshot set", want.snapshots, got.snapshots)
	check("epoch traces", want.epochs, got.epochs)
	check("churn classification", want.churn, got.churn)
}

func testbedCampaign(seed int64) campaignConfig {
	ls, err := topology.NewLeafSpine(topology.LeafSpineConfig{
		Leaves: 4, Spines: 2, HostsPerLeaf: 2,
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
		snapshots: 4,
		mutate: func(c *emunet.Config) {
			c.ChannelState = true
			c.LinkLossProb = 0.02
		},
	}
}

// TestDeterminismEquivalence proves the tentpole contract: one seed
// produces the identical journal, audit report, and snapshot set on the
// serial engine and on the parallel engine at every shard count and
// GOMAXPROCS setting.
func TestDeterminismEquivalence(t *testing.T) {
	cc := testbedCampaign(42)
	serial := runCampaign(t, cc, 0)
	if serial.journal == "" {
		t.Fatal("campaign recorded no journal events")
	}
	// Non-power-of-two counts {3, 5, 7} matter since PR 10: uneven
	// switch-to-shard modulo assignment produces asymmetric pair-link
	// sets (some shard pairs carry no links at all), exercising the
	// undeclared-pair and per-pair-clock paths the even splits miss.
	shardCounts := []int{1, 2, 3, 4, 5, 7, 8}
	procCounts := []int{1, 4}
	for _, shards := range shardCounts {
		for _, procs := range procCounts {
			shards, procs := shards, procs
			t.Run(fmt.Sprintf("shards%d_procs%d", shards, procs), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				got := runCampaign(t, cc, shards)
				diffArtifacts(t, fmt.Sprintf("shards=%d GOMAXPROCS=%d", shards, procs), serial, got)
			})
		}
	}
}

// TestDeterminismEquivalenceFatTree repeats the equivalence check on a
// k=4 fat-tree, whose multi-tier ECMP fabric exercises cross-shard
// wiring much harder than the testbed leaf-spine.
func TestDeterminismEquivalenceFatTree(t *testing.T) {
	ft, err := topology.NewFatTree(topology.FatTreeConfig{
		K:                 4,
		HostLinkLatency:   sim.Microsecond,
		FabricLinkLatency: sim.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	cc := campaignConfig{
		topo:      ft.Topology,
		hosts:     ft.Topology.HostIDs(),
		seed:      7,
		interval:  2 * sim.Microsecond,
		snapshots: 3,
	}
	serial := runCampaign(t, cc, 0)
	for _, shards := range []int{2, 3, 4, 5, 7, 8} {
		shards := shards
		t.Run(fmt.Sprintf("shards%d", shards), func(t *testing.T) {
			got := runCampaign(t, cc, shards)
			diffArtifacts(t, fmt.Sprintf("shards=%d", shards), serial, got)
		})
	}
}

// TestPropertyRandomizedEquivalence is the property-based harness:
// randomized topologies x workloads x fault schedules (wire loss,
// notification-socket drops, egress-queue overflow, snapshot-ID
// rollover pressure). For every run the protocol must end in a sound
// state — the audit report agrees with the observer on every snapshot
// (no silent disagreement), and the parallel engine reproduces the
// serial run byte for byte even while faults fire.
func TestPropertyRandomizedEquivalence(t *testing.T) {
	trials := 10
	if testing.Short() {
		trials = 3
	}
	r := rand.New(rand.NewSource(20260806))
	for trial := 0; trial < trials; trial++ {
		// Topology: mostly random leaf-spines, sometimes a fat-tree.
		var (
			topo *topology.Topology
			kind string
		)
		if trial%4 == 3 {
			ft, err := topology.NewFatTree(topology.FatTreeConfig{
				K:                 4,
				HostLinkLatency:   sim.Microsecond,
				FabricLinkLatency: sim.Duration(1+r.Intn(3)) * sim.Microsecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			topo, kind = ft.Topology, "fattree4"
		} else {
			leaves := 2 + r.Intn(3)
			spines := 1 + r.Intn(2)
			ls, err := topology.NewLeafSpine(topology.LeafSpineConfig{
				Leaves: leaves, Spines: spines, HostsPerLeaf: 1 + r.Intn(3),
				HostLinkLatency:   sim.Microsecond,
				FabricLinkLatency: sim.Duration(1+r.Intn(3)) * sim.Microsecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			topo, kind = ls.Topology, fmt.Sprintf("leafspine%dx%d", leaves, spines)
		}
		// Fault schedule: every knob the protocol recovers from.
		faults := emunet.Config{
			ChannelState:  r.Intn(2) == 0,
			NumCoS:        1 + r.Intn(2),
			LinkLossProb:  float64(r.Intn(4)) * 0.02,     // wire loss
			NotifCapacity: []int{0, 16, 4}[r.Intn(3)],    // notif drops
			QueueCapacity: []int{0, 8, 4}[r.Intn(3)],     // queue overflow
			MaxID:         []uint32{0, 16, 8}[r.Intn(3)], // rollover pressure
			RetryAfter:    sim.Duration(2+r.Intn(3)) * sim.Millisecond,
		}
		cc := campaignConfig{
			topo:      topo,
			hosts:     topo.HostIDs(),
			seed:      r.Int63(),
			interval:  sim.Duration(2+r.Intn(8)) * sim.Microsecond,
			snapshots: 3,
			mutate: func(c *emunet.Config) {
				c.ChannelState = faults.ChannelState
				c.NumCoS = faults.NumCoS
				c.LinkLossProb = faults.LinkLossProb
				c.NotifCapacity = faults.NotifCapacity
				c.QueueCapacity = faults.QueueCapacity
				if faults.MaxID != 0 {
					c.MaxID = faults.MaxID
				}
				c.RetryAfter = faults.RetryAfter
			},
		}
		// Churn schedule: half the trials interleave a randomized churn
		// schedule (drawn entirely at build time from its own seed, so
		// serial and parallel replay the identical schedule) with the
		// fault schedule above.
		churnSeed := r.Int63()
		withChurn := trial%2 == 0
		if withChurn {
			sws := make([]topology.NodeID, 0, len(topo.Switches))
			for _, sw := range topo.Switches {
				sws = append(sws, sw.ID)
			}
			cc.churn = func(c *reconcile.Controller) {
				cr := rand.New(rand.NewSource(churnSeed))
				reconcile.LinkFlapStorm(c.Links(), cr,
					sim.Duration(3+cr.Intn(3))*sim.Millisecond, 2+cr.Intn(4),
					sim.Millisecond, sim.Millisecond).Schedule(c)
				node := sws[cr.Intn(len(sws))]
				reconcile.RollingUpgrade([]topology.NodeID{node},
					sim.Duration(4+cr.Intn(3))*sim.Millisecond,
					sim.Duration(1+cr.Intn(2))*sim.Millisecond,
					sim.Millisecond).Schedule(c)
			}
			cc.trafficFor = 12 * sim.Millisecond
			cc.leakCheck = true
		}
		shards := 2 + r.Intn(5)
		name := fmt.Sprintf("trial%d_%s_loss%.2f_notif%d_queue%d_maxid%d_shards%d_churn%v",
			trial, kind, faults.LinkLossProb, faults.NotifCapacity, faults.QueueCapacity,
			faults.MaxID, shards, withChurn)
		t.Run(name, func(t *testing.T) {
			serial := runCampaign(t, cc, 0)
			parallel := runCampaign(t, cc, shards)
			diffArtifacts(t, name, serial, parallel)

			// Soundness: a faulty run may well end with snapshots marked
			// Inconsistent or Incomplete — what it must never do is
			// disagree silently: the audit proving broken a snapshot the
			// observer published as consistent.
			for _, a := range []artifacts{serial, parallel} {
				if a.disagreements != 0 {
					t.Fatalf("audit found %d silent disagreements", a.disagreements)
				}
				if a.tally.SilentDisagreement != 0 {
					t.Fatalf("churn classification found silent disagreement: %s", a.tally)
				}
			}
			if withChurn && serial.churn == "" {
				t.Fatal("churn trial journaled no churn events")
			}
			if serial.journal == "" {
				t.Fatal("campaign recorded no journal events")
			}
		})
	}
}
