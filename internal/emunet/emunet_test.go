package emunet

import (
	"math/rand"
	"strings"
	"testing"

	"speedlight/internal/clock"
	"speedlight/internal/core"
	"speedlight/internal/dataplane"
	"speedlight/internal/node"
	"speedlight/internal/packet"
	"speedlight/internal/routing"
	"speedlight/internal/sim"
	"speedlight/internal/topology"
)

func newNet(t *testing.T, mod func(*Config)) *Network {
	t.Helper()
	return newRatedNet(t, 0, mod)
}

// newRatedNet builds the 2x2x3 testbed with every link at rateBps (0:
// the emulation's default).
func newRatedNet(t *testing.T, rateBps float64, mod func(*Config)) *Network {
	t.Helper()
	ls, err := topology.NewLeafSpine(topology.LeafSpineConfig{
		Leaves: 2, Spines: 2, HostsPerLeaf: 3,
		HostLinkLatency:   sim.Microsecond,
		FabricLinkLatency: sim.Microsecond,
		HostRateBps:       rateBps,
		FabricRateBps:     rateBps,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Topo:         ls.Topology,
		Seed:         42,
		MaxID:        64,
		WrapAround:   true,
		ChannelState: false,
	}
	if mod != nil {
		mod(&cfg)
	}
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// trafficGen injects a steady all-to-all packet stream.
func trafficGen(n *Network, periodPerHost sim.Duration) {
	eng := n.Engine()
	hosts := n.Topo().Hosts
	r := eng.NewRand()
	var seq uint64
	for _, h := range hosts {
		h := h
		eng.NewTicker(periodPerHost, func() {
			dst := hosts[r.Intn(len(hosts))]
			if dst.ID == h.ID {
				return
			}
			seq++
			n.InjectFromHost(h.ID, &packet.Packet{
				DstHost: uint32(dst.ID),
				SrcPort: uint16(1000 + h.ID),
				DstPort: 80,
				Proto:   6,
				Size:    1000,
				Seq:     seq,
			})
		})
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("nil topology accepted")
	}
}

func TestPacketDelivery(t *testing.T) {
	var delivered []*packet.Packet
	var deliveredTo []topology.HostID
	n := newNet(t, func(c *Config) {
		c.OnDeliver = func(p *packet.Packet, h topology.HostID, _ sim.Time) {
			delivered = append(delivered, p)
			deliveredTo = append(deliveredTo, h)
		}
	})
	// Host 0 (leaf 0) to host 3 (leaf 1): crosses the fabric.
	n.InjectFromHost(0, &packet.Packet{DstHost: 3, Size: 100, Proto: 6})
	n.RunFor(sim.Millisecond)
	if len(delivered) != 1 {
		t.Fatalf("delivered %d packets", len(delivered))
	}
	if deliveredTo[0] != 3 {
		t.Errorf("delivered to %d", deliveredTo[0])
	}
	if delivered[0].HasSnap {
		t.Error("snapshot header not stripped before host delivery")
	}
	if delivered[0].SrcHost != 0 {
		t.Error("source host not stamped")
	}
}

func TestLocalDelivery(t *testing.T) {
	count := 0
	n := newNet(t, func(c *Config) {
		c.OnDeliver = func(*packet.Packet, topology.HostID, sim.Time) { count++ }
	})
	// Host 0 to host 1, same leaf.
	n.InjectFromHost(0, &packet.Packet{DstHost: 1, Size: 100})
	n.RunFor(sim.Millisecond)
	if count != 1 {
		t.Fatalf("delivered %d", count)
	}
}

func TestSnapshotCompletesNoChannelState(t *testing.T) {
	n := newNet(t, nil)
	trafficGen(n, 10*sim.Microsecond)
	n.RunFor(2 * sim.Millisecond)
	if _, err := n.ScheduleSnapshot(n.Engine().Now().Add(sim.Millisecond)); err != nil {
		t.Fatal(err)
	}
	n.RunFor(20 * sim.Millisecond)
	snaps := n.Snapshots()
	if len(snaps) != 1 {
		t.Fatalf("completed %d snapshots", len(snaps))
	}
	g := snaps[0]
	if !g.Consistent {
		t.Error("snapshot inconsistent")
	}
	if len(g.Excluded) != 0 {
		t.Errorf("excluded: %v", g.Excluded)
	}
	// 2 leaves x 5 ports + 2 spines x 2 ports = 14 ports = 28 units.
	if len(g.Results) != 28 {
		t.Errorf("results = %d, want 28", len(g.Results))
	}
	// Some unit must have counted traffic.
	var total uint64
	for _, res := range g.Results {
		total += res.Value
	}
	if total == 0 {
		t.Error("all snapshot values zero despite traffic")
	}
}

func TestSnapshotCompletesWithChannelState(t *testing.T) {
	n := newNet(t, func(c *Config) { c.ChannelState = true })
	trafficGen(n, 10*sim.Microsecond)
	n.RunFor(2 * sim.Millisecond)
	if _, err := n.ScheduleSnapshot(n.Engine().Now().Add(sim.Millisecond)); err != nil {
		t.Fatal(err)
	}
	n.RunFor(30 * sim.Millisecond)
	snaps := n.Snapshots()
	if len(snaps) != 1 {
		t.Fatalf("completed %d snapshots", len(snaps))
	}
	if !snaps[0].Consistent {
		t.Error("snapshot inconsistent")
	}
}

func TestCountersMonotoneAcrossSnapshots(t *testing.T) {
	n := newNet(t, nil)
	trafficGen(n, 10*sim.Microsecond)
	for i := 0; i < 5; i++ {
		n.RunFor(2 * sim.Millisecond)
		if _, err := n.ScheduleSnapshot(n.Engine().Now().Add(sim.Millisecond)); err != nil {
			t.Fatal(err)
		}
	}
	n.RunFor(50 * sim.Millisecond)
	snaps := n.Snapshots()
	if len(snaps) != 5 {
		t.Fatalf("completed %d of 5", len(snaps))
	}
	// Per unit, packet counters must be non-decreasing in snapshot order.
	last := map[dataplane.UnitID]uint64{}
	for _, g := range snaps {
		for id, res := range g.Results {
			if !res.Consistent {
				continue
			}
			if res.Value < last[id] {
				t.Errorf("unit %v: snapshot %d value %d < previous %d",
					id, g.ID, res.Value, last[id])
			}
			last[id] = res.Value
		}
	}
}

func TestSyncSpreadRecorded(t *testing.T) {
	n := newNet(t, nil)
	trafficGen(n, 10*sim.Microsecond)
	n.RunFor(sim.Millisecond)
	id, err := n.ScheduleSnapshot(n.Engine().Now().Add(sim.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	n.RunFor(20 * sim.Millisecond)
	spread, ok := n.SyncSpread(id)
	if !ok {
		t.Fatal("no sync window recorded")
	}
	if spread <= 0 {
		t.Errorf("spread = %d, want positive", spread)
	}
	// PTP-scale initiation: tens of microseconds at most.
	if spread > 200*sim.Microsecond {
		t.Errorf("spread = %v µs, implausibly large", spread.Micros())
	}
	if _, ok := n.SyncSpread(9999); ok {
		t.Error("unknown snapshot has a sync window")
	}
}

func TestChannelStateCompletesWithoutTraffic(t *testing.T) {
	// Liveness (Section 6): with zero data traffic, completion relies on
	// retries, register polls and marker broadcasts.
	n := newNet(t, func(c *Config) {
		c.ChannelState = true
		c.RetryAfter = 2 * sim.Millisecond
	})
	if _, err := n.ScheduleSnapshot(n.Engine().Now().Add(sim.Millisecond)); err != nil {
		t.Fatal(err)
	}
	n.RunFor(40 * sim.Millisecond)
	snaps := n.Snapshots()
	if len(snaps) != 1 {
		t.Fatalf("completed %d snapshots without traffic", len(snaps))
	}
	if len(snaps[0].Excluded) != 0 {
		t.Errorf("devices excluded: %v", snaps[0].Excluded)
	}
}

func TestMarkersNeverReachHosts(t *testing.T) {
	n := newNet(t, func(c *Config) {
		c.ChannelState = true
		c.RetryAfter = sim.Millisecond
		c.OnDeliver = func(p *packet.Packet, h topology.HostID, _ sim.Time) {
			if topology.HostID(p.DstHost) == node.BroadcastHost {
				t.Errorf("marker broadcast delivered to host %d", h)
			}
		}
	})
	n.ScheduleSnapshot(n.Engine().Now().Add(sim.Millisecond))
	n.RunFor(30 * sim.Millisecond)
}

func TestNotificationDropRecovery(t *testing.T) {
	n := newNet(t, func(c *Config) {
		c.NotifCapacity = 2 // aggressive loss
		c.RetryAfter = 2 * sim.Millisecond
	})
	trafficGen(n, 20*sim.Microsecond)
	n.RunFor(sim.Millisecond)
	if _, err := n.ScheduleSnapshot(n.Engine().Now().Add(sim.Millisecond)); err != nil {
		t.Fatal(err)
	}
	n.RunFor(40 * sim.Millisecond)
	if len(n.Snapshots()) != 1 {
		t.Fatalf("snapshot did not complete despite recovery (drops=%d)", n.NotifDropsTotal())
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() (uint64, []uint64) {
		n := newNet(t, nil)
		trafficGen(n, 10*sim.Microsecond)
		n.RunFor(sim.Millisecond)
		id, _ := n.ScheduleSnapshot(n.Engine().Now().Add(sim.Millisecond))
		n.RunFor(20 * sim.Millisecond)
		var values []uint64
		if len(n.Snapshots()) > 0 {
			g := n.Snapshots()[0]
			for _, u := range n.Switch(0).DP.UnitIDs() {
				if r, ok := g.Results[u]; ok {
					values = append(values, r.Value)
				}
			}
		}
		spread, _ := n.SyncSpread(id)
		return uint64(spread), values
	}
	s1, v1 := run()
	s2, v2 := run()
	if s1 != s2 {
		t.Errorf("sync spreads differ: %d vs %d", s1, s2)
	}
	if len(v1) != len(v2) {
		t.Fatalf("value counts differ")
	}
	for i := range v1 {
		if v1[i] != v2[i] {
			t.Fatalf("value %d differs: %d vs %d", i, v1[i], v2[i])
		}
	}
}

func TestPartialDeployment(t *testing.T) {
	// Spine 1 (node 3) is snapshot-disabled: traffic through it must
	// still flow, headers must survive it, and snapshots must complete
	// among the other three switches.
	n := newNet(t, func(c *Config) {
		c.SnapshotDisabled = map[topology.NodeID]bool{3: true}
	})
	delivered := 0
	n.cfg.OnDeliver = func(*packet.Packet, topology.HostID, sim.Time) { delivered++ }
	trafficGen(n, 10*sim.Microsecond)
	n.RunFor(2 * sim.Millisecond)
	if _, err := n.ScheduleSnapshot(n.Engine().Now().Add(sim.Millisecond)); err != nil {
		t.Fatal(err)
	}
	n.RunFor(30 * sim.Millisecond)
	snaps := n.Snapshots()
	if len(snaps) != 1 {
		t.Fatalf("completed %d snapshots", len(snaps))
	}
	g := snaps[0]
	if len(g.Excluded) != 0 {
		t.Errorf("excluded: %v", g.Excluded)
	}
	// 28 total units minus spine 1's 4 units.
	if len(g.Results) != 24 {
		t.Errorf("results = %d, want 24", len(g.Results))
	}
	if delivered == 0 {
		t.Error("no traffic delivered through partial deployment")
	}
	// The disabled switch's units must have stayed at epoch 0.
	for _, id := range n.Switch(3).DP.UnitIDs() {
		if sid := n.Unit(id).CurrentSID(); sid != 0 {
			t.Errorf("disabled switch unit %v advanced to %d", id, sid)
		}
	}
}

func TestQueueDepthGaugeMetric(t *testing.T) {
	maxSeen := uint64(0)
	// Slow links so queues build.
	n := newRatedNet(t, 1e9, func(c *Config) {
		c.Metrics = func(net *Network, id dataplane.UnitID) core.Metric {
			if id.Dir == dataplane.Egress {
				return net.Gauge(id)
			}
			return nil // default packet counter for ingress
		}
	})
	// Incast: everyone sends to host 0.
	for _, h := range n.Topo().Hosts {
		if h.ID == 0 {
			continue
		}
		h := h
		n.Engine().NewTicker(5*sim.Microsecond, func() {
			n.InjectFromHost(h.ID, &packet.Packet{DstHost: 0, Size: 1500, Proto: 6})
		})
	}
	probe := n.Engine().NewTicker(20*sim.Microsecond, func() {
		// Leaf 0 port 0 is host 0's egress.
		if v := n.Gauge(dataplane.UnitID{Node: 0, Port: 0, Dir: dataplane.Egress}).Read(); v > maxSeen {
			maxSeen = v
		}
	})
	n.RunFor(5 * sim.Millisecond)
	probe.Stop()
	if maxSeen == 0 {
		t.Error("queue depth gauge never rose during incast")
	}
}

func TestHotQueueDropsUnderOverload(t *testing.T) {
	n := newRatedNet(t, 1e8, func(c *Config) { // 100 Mb/s: trivially overloaded
		c.QueueCapacity = 16
	})
	for _, h := range n.Topo().Hosts {
		if h.ID == 0 {
			continue
		}
		h := h
		n.Engine().NewTicker(2*sim.Microsecond, func() {
			n.InjectFromHost(h.ID, &packet.Packet{DstHost: 0, Size: 1500})
		})
	}
	n.RunFor(5 * sim.Millisecond)
	if n.QueueDropsTotal() == 0 {
		t.Error("no queue drops under gross overload")
	}
}

func TestFlowletBalancerOption(t *testing.T) {
	n := newNet(t, func(c *Config) {
		c.NewBalancer = func(_ topology.NodeID, r *rand.Rand) routing.Balancer {
			return routing.NewFlowlet(50*sim.Microsecond, r)
		}
	})
	count := 0
	n.cfg.OnDeliver = func(*packet.Packet, topology.HostID, sim.Time) { count++ }
	trafficGen(n, 10*sim.Microsecond)
	n.RunFor(2 * sim.Millisecond)
	if count == 0 {
		t.Error("no delivery with flowlet balancer")
	}
}

func TestPerfectClockTightSync(t *testing.T) {
	n := newNet(t, func(c *Config) {
		c.Clock = clock.Perfect() // initiation jitter still applies
	})
	trafficGen(n, 10*sim.Microsecond)
	n.RunFor(sim.Millisecond)
	id, _ := n.ScheduleSnapshot(n.Engine().Now().Add(sim.Millisecond))
	n.RunFor(20 * sim.Millisecond)
	spread, ok := n.SyncSpread(id)
	if !ok {
		t.Fatal("no sync recorded")
	}
	// With perfect clocks only initiation jitter and propagation remain.
	if spread > 100*sim.Microsecond {
		t.Errorf("perfect-clock spread %v µs too large", spread.Micros())
	}
}

func TestSnapshotRateOverloadDropsNotifications(t *testing.T) {
	// Initiating far faster than the CP service rate must build up and
	// overflow the notification queue (the Figure 10 phenomenon).
	n := newNet(t, func(c *Config) {
		c.NotifCapacity = 32
		c.RetryAfter = -1 // isolate the effect
		c.ExcludeAfter = -1
	})
	trafficGen(n, 10*sim.Microsecond)
	tick := n.Engine().NewTicker(100*sim.Microsecond, func() { // 10 kHz
		n.ScheduleSnapshot(n.Engine().Now())
	})
	n.RunFor(40 * sim.Millisecond)
	tick.Stop()
	if n.NotifDropsTotal() == 0 {
		t.Error("no notification drops at 10 kHz snapshot rate")
	}
}

func TestSnapshotsSurviveLinkLoss(t *testing.T) {
	// Failure injection: 10% of every wire transmission is lost. The
	// protocol's loss resilience — IDs piggybacked on every packet,
	// re-initiation and register polls on timeout (Section 6) — must
	// still complete every snapshot, and counters must stay monotone.
	n := newNet(t, func(c *Config) {
		c.LinkLossProb = 0.10
		c.RetryAfter = 2 * sim.Millisecond
	})
	trafficGen(n, 5*sim.Microsecond)
	var ids []packet.SeqID
	for i := 0; i < 5; i++ {
		n.RunFor(2 * sim.Millisecond)
		if id, err := n.ScheduleSnapshot(n.Engine().Now().Add(sim.Millisecond)); err == nil {
			ids = append(ids, id)
		}
	}
	n.RunFor(60 * sim.Millisecond)
	if n.WireDrops() == 0 {
		t.Fatal("loss injection inactive")
	}
	if got := len(n.Snapshots()); got != len(ids) {
		t.Fatalf("completed %d of %d snapshots under 10%% loss (drops=%d)",
			got, len(ids), n.WireDrops())
	}
	last := map[dataplane.UnitID]uint64{}
	for _, g := range n.Snapshots() {
		for u, res := range g.Results {
			if !res.Consistent {
				continue
			}
			if res.Value < last[u] {
				t.Errorf("unit %v regressed under loss: %d -> %d", u, last[u], res.Value)
			}
			last[u] = res.Value
		}
	}
}

func TestChannelStateSurvivesLinkLoss(t *testing.T) {
	n := newNet(t, func(c *Config) {
		c.ChannelState = true
		c.LinkLossProb = 0.05
		c.RetryAfter = 2 * sim.Millisecond
	})
	trafficGen(n, 5*sim.Microsecond)
	n.RunFor(2 * sim.Millisecond)
	if _, err := n.ScheduleSnapshot(n.Engine().Now().Add(sim.Millisecond)); err != nil {
		t.Fatal(err)
	}
	n.RunFor(60 * sim.Millisecond)
	if len(n.Snapshots()) != 1 {
		t.Fatalf("channel-state snapshot did not complete under loss (drops=%d)", n.WireDrops())
	}
}

func TestCoSPriorityOvertaking(t *testing.T) {
	// Strict priority: with a slow link and a backlog of best-effort
	// packets, a high-class packet injected later is delivered first.
	order := []uint8{}
	n := newRatedNet(t, 1e8, func(c *Config) { // 100 Mb/s: 1500B takes 120 µs
		c.NumCoS = 2
		c.OnDeliver = func(p *packet.Packet, _ topology.HostID, _ sim.Time) {
			order = append(order, p.CoS)
		}
	})
	// Backlog of best-effort traffic host0 -> host1.
	for i := 0; i < 8; i++ {
		n.InjectFromHost(0, &packet.Packet{DstHost: 1, Size: 1500, SrcPort: uint16(i), Proto: 6})
	}
	// Let the first packet start transmitting, then inject high priority.
	n.RunFor(50 * sim.Microsecond)
	n.InjectFromHost(0, &packet.Packet{DstHost: 1, Size: 1500, SrcPort: 99, Proto: 6, CoS: 1})
	n.RunFor(10 * sim.Millisecond)
	if len(order) != 9 {
		t.Fatalf("delivered %d of 9", len(order))
	}
	// The high-class packet must not be last; it overtakes most of the
	// backlog (it cannot preempt the frame already on the wire).
	pos := -1
	for i, cos := range order {
		if cos == 1 {
			pos = i
		}
	}
	if pos < 0 || pos > 2 {
		t.Errorf("high-priority packet delivered at position %d of %d: %v", pos, len(order), order)
	}
}

func TestCoSSnapshotCompletesWithChannelState(t *testing.T) {
	// The per-class FIFO channels each need their own markers; the
	// initiation fan-out and marker injection must cover them all.
	n := newNet(t, func(c *Config) {
		c.NumCoS = 3
		c.ChannelState = true
		c.RetryAfter = 2 * sim.Millisecond
	})
	// Traffic across two classes (class 2 stays idle: markers cover it).
	eng := n.Engine()
	r := eng.NewRand()
	var nextSrc uint16
	hosts := n.Topo().Hosts
	eng.NewTicker(2*sim.Microsecond, func() {
		src := hosts[r.Intn(len(hosts))]
		dst := hosts[r.Intn(len(hosts))]
		if src.ID == dst.ID {
			return
		}
		nextSrc++
		n.InjectFromHost(src.ID, &packet.Packet{
			DstHost: uint32(dst.ID),
			SrcPort: 1000 + nextSrc%40000,
			DstPort: 80,
			Proto:   6,
			Size:    500,
			CoS:     uint8(nextSrc % 2),
		})
	})
	n.RunFor(2 * sim.Millisecond)
	if _, err := n.ScheduleSnapshot(n.Engine().Now().Add(sim.Millisecond)); err != nil {
		t.Fatal(err)
	}
	n.RunFor(60 * sim.Millisecond)
	snaps := n.Snapshots()
	if len(snaps) != 1 {
		t.Fatalf("completed %d snapshots with 3 classes", len(snaps))
	}
	if !snaps[0].Consistent {
		t.Error("snapshot inconsistent")
	}
	if len(snaps[0].Excluded) != 0 {
		t.Errorf("excluded: %v", snaps[0].Excluded)
	}
}

func TestCoSCountersStillMonotone(t *testing.T) {
	n := newNet(t, func(c *Config) { c.NumCoS = 2 })
	eng := n.Engine()
	var i uint16
	eng.NewTicker(5*sim.Microsecond, func() {
		i++
		n.InjectFromHost(0, &packet.Packet{
			DstHost: 3, SrcPort: 1000 + i, Proto: 6, Size: 800, CoS: uint8(i % 2),
		})
	})
	last := map[dataplane.UnitID]uint64{}
	for round := 0; round < 4; round++ {
		n.RunFor(2 * sim.Millisecond)
		if _, err := n.ScheduleSnapshot(eng.Now().Add(sim.Millisecond)); err != nil {
			t.Fatal(err)
		}
	}
	n.RunFor(40 * sim.Millisecond)
	if len(n.Snapshots()) != 4 {
		t.Fatalf("completed %d of 4", len(n.Snapshots()))
	}
	for _, g := range n.Snapshots() {
		for u, res := range g.Results {
			if res.Consistent && res.Value < last[u] {
				t.Errorf("unit %v regressed", u)
			}
			last[u] = res.Value
		}
	}
}

func TestFatTreeSnapshot(t *testing.T) {
	// A k=4 fat tree: 20 switches, 16 hosts, 160 processing units. The
	// snapshot must assemble consistently across the three tiers.
	ft, err := topology.NewFatTree(topology.FatTreeConfig{
		K:                 4,
		HostLinkLatency:   sim.Microsecond,
		FabricLinkLatency: sim.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	n, err := New(Config{Topo: ft.Topology, Seed: 5, MaxID: 128, WrapAround: true})
	if err != nil {
		t.Fatal(err)
	}
	// Cross-pod all-to-all traffic.
	eng := n.Engine()
	r := eng.NewRand()
	var seq uint16
	for _, h := range ft.Hosts {
		h := h
		eng.NewTicker(10*sim.Microsecond, func() {
			dst := ft.Hosts[r.Intn(len(ft.Hosts))]
			if dst.ID == h.ID {
				return
			}
			seq++
			n.InjectFromHost(h.ID, &packet.Packet{
				DstHost: uint32(dst.ID), SrcPort: 1000 + seq, DstPort: 80,
				Proto: 6, Size: 700,
			})
		})
	}
	n.RunFor(2 * sim.Millisecond)
	if _, err := n.ScheduleSnapshot(eng.Now().Add(sim.Millisecond)); err != nil {
		t.Fatal(err)
	}
	n.RunFor(30 * sim.Millisecond)
	snaps := n.Snapshots()
	if len(snaps) != 1 {
		t.Fatalf("completed %d snapshots on the fat tree", len(snaps))
	}
	g := snaps[0]
	if !g.Consistent {
		t.Error("fat-tree snapshot inconsistent")
	}
	// 20 switches x 4 ports x 2 directions.
	if len(g.Results) != 160 {
		t.Errorf("results = %d, want 160", len(g.Results))
	}
	var total uint64
	for _, res := range g.Results {
		total += res.Value
	}
	if total == 0 {
		t.Error("all-zero fat-tree snapshot")
	}
}

func TestPerLinkRates(t *testing.T) {
	// Host links at 1 Gb/s, fabric at 10 Gb/s: the slow host egress
	// link dominates delivery time for a back-to-back burst.
	b := topology.NewBuilder()
	s0 := b.AddSwitch(2)
	s1 := b.AddSwitch(2)
	b.AttachHostRated(s0, 0, sim.Microsecond, 1e9)
	b.AttachHostRated(s1, 0, sim.Microsecond, 1e9)
	b.ConnectRated(s0, 1, s1, 1, sim.Microsecond, 1e10)
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	var lastAt sim.Time
	n, err := New(Config{
		Topo: topo, Seed: 1,
		OnDeliver: func(_ *packet.Packet, _ topology.HostID, at sim.Time) { lastAt = at },
	})
	if err != nil {
		t.Fatal(err)
	}
	const N = 10
	for i := 0; i < N; i++ {
		n.InjectFromHost(0, &packet.Packet{DstHost: 1, Size: 1250, SrcPort: uint16(i), Proto: 6})
	}
	n.RunFor(sim.Millisecond)
	// 1250B at 1 Gb/s = 10 µs per packet on the host link; ten packets
	// take ~100 µs. At the fabric's 10 Gb/s they'd take ~10 µs.
	if lastAt < sim.Time(90*sim.Microsecond) {
		t.Errorf("burst drained in %v µs: host link rate ignored", lastAt.Micros())
	}
	if lastAt > sim.Time(200*sim.Microsecond) {
		t.Errorf("burst took %v µs: serialization model off", lastAt.Micros())
	}
}

func TestOnInjectHook(t *testing.T) {
	count := 0
	n := newNet(t, func(c *Config) {
		c.OnInject = func(p *packet.Packet, h topology.HostID, at sim.Time) {
			count++
			if h != 0 || p.DstHost != 3 {
				t.Errorf("hook saw %d->%d", h, p.DstHost)
			}
		}
	})
	for i := 0; i < 7; i++ {
		n.InjectFromHost(0, &packet.Packet{DstHost: 3, Size: 100, SrcPort: uint16(i)})
	}
	if count != 7 {
		t.Errorf("hook fired %d times", count)
	}
}

func TestLargeFatTreeCampaign(t *testing.T) {
	// A k=6 fat tree: 45 switches, 54 hosts, 540 processing units, and
	// a 20-snapshot campaign under all-to-all traffic — the simulator
	// at a scale well beyond the paper's testbed.
	if testing.Short() {
		t.Skip("large fabric")
	}
	ft, err := topology.NewFatTree(topology.FatTreeConfig{
		K:                 6,
		HostLinkLatency:   sim.Microsecond,
		FabricLinkLatency: sim.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	n, err := New(Config{Topo: ft.Topology, Seed: 6, MaxID: 256, WrapAround: true})
	if err != nil {
		t.Fatal(err)
	}
	eng := n.Engine()
	r := eng.NewRand()
	var seq uint16
	for _, h := range ft.Hosts {
		h := h
		eng.NewTicker(20*sim.Microsecond, func() {
			dst := ft.Hosts[r.Intn(len(ft.Hosts))]
			if dst.ID == h.ID {
				return
			}
			seq++
			n.InjectFromHost(h.ID, &packet.Packet{
				DstHost: uint32(dst.ID), SrcPort: 1000 + seq, DstPort: 80,
				Proto: 6, Size: 600,
			})
		})
	}
	n.RunFor(2 * sim.Millisecond)
	const rounds = 20
	for i := 0; i < rounds; i++ {
		n.RunFor(sim.Millisecond)
		if _, err := n.ScheduleSnapshot(eng.Now().Add(500 * sim.Microsecond)); err != nil {
			t.Fatal(err)
		}
	}
	n.RunFor(60 * sim.Millisecond)
	snaps := n.Snapshots()
	if len(snaps) != rounds {
		t.Fatalf("completed %d of %d", len(snaps), rounds)
	}
	for _, g := range snaps {
		if len(g.Results) != 540 {
			t.Fatalf("snapshot %d covered %d units, want 540", g.ID, len(g.Results))
		}
		if !g.Consistent {
			t.Errorf("snapshot %d inconsistent", g.ID)
		}
	}
	// Synchronization stays microsecond-scale even at 45 devices.
	worst := sim.Duration(0)
	for _, g := range snaps {
		if d, ok := n.SyncSpread(g.ID); ok && d > worst {
			worst = d
		}
	}
	if worst <= 0 || worst > 200*sim.Microsecond {
		t.Errorf("worst sync %v µs out of range", worst.Micros())
	}
}

// twoSwitch builds two switches joined by one link of the given
// latency, the first with ports0 ports, one host on each.
func twoSwitch(t *testing.T, ports0 int, linkLatency sim.Duration) *topology.Topology {
	t.Helper()
	b := topology.NewBuilder()
	s0 := b.AddSwitch(ports0)
	s1 := b.AddSwitch(2)
	b.AttachHost(s0, 0, sim.Microsecond)
	b.AttachHost(s1, 0, sim.Microsecond)
	b.Connect(s0, 1, s1, 1, linkLatency)
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

// TestNewRejectsUnbuildableFabrics: configurations the emulation cannot
// represent fail at New with an error naming the cause — a zero-latency
// link across shards (a shard pair needs positive lookahead; the same
// link on the serial engine is fine), and a port count or class count
// past its field of the packed transmit event, which would otherwise
// transmit from the wrong queue (the class bound is the data plane's
// tighter one, surfaced through New).
func TestNewRejectsUnbuildableFabrics(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		want string // "" = New must succeed
	}{
		{"zero-latency link across shards", Config{Topo: twoSwitch(t, 2, 0), Shards: 2}, "link 0<->1 crosses shards with zero latency"},
		{"zero-latency link, serial", Config{Topo: twoSwitch(t, 2, 0)}, ""},
		{"positive-latency link across shards", Config{Topo: twoSwitch(t, 2, 1), Shards: 2}, ""},
		{"4096 ports", Config{Topo: twoSwitch(t, 4096, sim.Microsecond)}, ""},
		{"4097 ports", Config{Topo: twoSwitch(t, 4097, sim.Microsecond)}, "switch 0 has 4097 ports"},
		{"16 classes", Config{Topo: twoSwitch(t, 2, sim.Microsecond), NumCoS: 16}, ""},
		{"257 classes", Config{Topo: twoSwitch(t, 2, sim.Microsecond), NumCoS: 257}, "NumCoS 257 exceeds"},
	} {
		_, err := New(tc.cfg)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: New failed: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: New error = %v, want one mentioning %q", tc.name, err, tc.want)
		}
	}
}
