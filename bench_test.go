package speedlight

// The benchmarks below regenerate, at reduced scale, every table and
// figure of the paper's evaluation (run `cmd/experiments` for the
// full-size versions), plus micro-benchmarks of the protocol's hot
// paths. Run with:
//
//	go test -bench=. -benchmem
import (
	"fmt"
	"testing"
	"time"

	"speedlight/internal/control"
	"speedlight/internal/core"
	"speedlight/internal/counters"
	"speedlight/internal/dataplane"
	"speedlight/internal/emunet"
	"speedlight/internal/epochtrace"
	"speedlight/internal/experiments"
	"speedlight/internal/journal"
	"speedlight/internal/observer"
	"speedlight/internal/packet"
	"speedlight/internal/routing"
	"speedlight/internal/sim"
	"speedlight/internal/snapstore"
	"speedlight/internal/telemetry"
	"speedlight/internal/topology"
	"speedlight/internal/wire"
)

// BenchmarkTable1Resources regenerates Table 1: data-plane resource
// usage of the three Speedlight variants.
func BenchmarkTable1Resources(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.Table1(64)
		if len(t.Rows) != 7 {
			b.Fatal("table shape")
		}
	}
}

// BenchmarkFig9Synchronization regenerates Figure 9: synchronization
// CDFs of snapshots (with and without channel state) versus polling.
func BenchmarkFig9Synchronization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig9(experiments.Fig9Config{Snapshots: 10, Seed: int64(i + 1)})
		if r.SwitchState.N() == 0 || r.Polling.N() == 0 {
			b.Fatal("empty result")
		}
	}
}

// BenchmarkFig10SnapshotRate regenerates one point of Figure 10: the
// maximum sustained snapshot rate of a 16-port router.
func BenchmarkFig10SnapshotRate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig10(experiments.Fig10Config{
			PortCounts:    []int{16},
			TrialDuration: 20 * sim.Millisecond,
			Seed:          int64(i + 1),
		})
		if r.Points[0].MaxRateHz <= 0 {
			b.Fatal("no rate found")
		}
	}
}

// BenchmarkFig11Scale regenerates Figure 11: synchronization versus
// network size up to 10,000 routers.
func BenchmarkFig11Scale(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig11(experiments.Fig11Config{
			RouterCounts:         []int{10, 1000, 10000},
			Trials:               20,
			CalibrationSnapshots: 30,
			Seed:                 int64(i + 1),
		})
		if len(r.Points) != 3 {
			b.Fatal("points")
		}
	}
}

// BenchmarkFig12LoadBalance regenerates Figure 12: uplink load-balance
// standard deviation under the three workloads, two balancers and two
// measurement methods.
func BenchmarkFig12LoadBalance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig12(experiments.Fig12Config{Samples: 20, Seed: int64(i + 1)})
		if len(r.Workloads) != 3 {
			b.Fatal("workloads")
		}
	}
}

// BenchmarkFig13Correlation regenerates Figure 13: pairwise egress-port
// correlation analysis under GraphX, snapshots versus polling.
func BenchmarkFig13Correlation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig13(experiments.Fig13Config{Snapshots: 30, Seed: int64(i + 1)})
		if r.Snapshot.Matrix == nil {
			b.Fatal("no matrix")
		}
	}
}

// BenchmarkAblationInitiators regenerates the multi- vs
// single-initiator design ablation.
func BenchmarkAblationInitiators(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.AblationInitiators(experiments.AblationConfig{
			Snapshots: 15, Seed: int64(i + 1),
		})
		if r.Multi.N() == 0 {
			b.Fatal("empty")
		}
	}
}

// BenchmarkAblationClocks regenerates the clock-discipline ablation.
func BenchmarkAblationClocks(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.AblationClocks(experiments.AblationConfig{
			Snapshots: 15, Seed: int64(i + 1),
		})
		if r.PTP.N() == 0 {
			b.Fatal("empty")
		}
	}
}

// BenchmarkAblationNotifBuffers regenerates the socket-buffer ablation.
func BenchmarkAblationNotifBuffers(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.AblationNotifBuffers(experiments.AblationConfig{Seed: int64(i + 1)})
		if len(r.Points) != 4 {
			b.Fatal("points")
		}
	}
}

// BenchmarkAblationPartialDeployment regenerates the Section 10
// partial-deployment ablation.
func BenchmarkAblationPartialDeployment(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.AblationPartialDeployment(experiments.AblationConfig{
			Snapshots: 10, Seed: int64(i + 1),
		})
		if len(r.Points) != 3 {
			b.Fatal("points")
		}
	}
}

// BenchmarkUnitOnPacket measures the per-packet cost of the snapshot
// state machine itself — the protocol's inner loop.
func BenchmarkUnitOnPacket(b *testing.B) {
	u, err := core.NewUnit(core.Config{
		MaxID: 256, WrapAround: true, ChannelState: true,
		NumChannels: 2, CPChannel: 1,
	}, &counters.PacketCount{})
	if err != nil {
		b.Fatal(err)
	}
	pkt := &packet.Packet{
		HasSnap: true,
		Snap:    packet.SnapshotHeader{Type: packet.TypeData},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pkt.Snap.ID = packet.WireIDFromRaw(uint32((uint64(i) / 1024) % 256)) // epoch advances every 1024 packets
		u.OnPacket(pkt, 0)
	}
}

// BenchmarkSwitchPipeline measures a full ingress+egress traversal of
// one emulated switch, including forwarding lookup and balancing.
func BenchmarkSwitchPipeline(b *testing.B) {
	sw, err := dataplane.New(dataplane.Config{
		Node: 0, NumPorts: 8, MaxID: 256, WrapAround: true,
		Metrics: func(dataplane.UnitID) core.Metric { return &counters.PacketCount{} },
		FIB: &routing.FIB{
			Node: 0, Version: 1,
			NextHops: map[topology.HostID][]int{10: {4, 5, 6, 7}},
		},
		Balancer: routing.ECMP{},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pkt := &packet.Packet{DstHost: 10, SrcPort: uint16(i), Size: 1000}
		res := sw.Ingress(pkt, i%4, 0)
		sw.Egress(pkt, res.EgressPort, 0)
		if i%512 == 0 {
			for {
				if _, ok := sw.PopNotif(); !ok {
					break
				}
			}
		}
	}
}

// BenchmarkHeaderCodec measures the snapshot header wire codec.
//
//speedlight:allocgate packet.SnapshotHeader.AppendBinary
func BenchmarkHeaderCodec(b *testing.B) {
	h := packet.SnapshotHeader{Type: packet.TypeData, ID: 123456, Channel: 17}
	buf := make([]byte, 0, packet.HeaderLen)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = h.AppendBinary(buf[:0])
		var out packet.SnapshotHeader
		if err := out.UnmarshalBinary(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFacadeSnapshot measures one end-to-end snapshot round on the
// public API: schedule, initiate at every switch, complete, assemble.
func BenchmarkFacadeSnapshot(b *testing.B) {
	net, err := New(Config{Seed: 9})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		net.Send(0, 3, 1000, uint16(i), 80)
	}
	net.Run(time.Millisecond)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := net.Snapshot(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEmulationThroughput measures the discrete-event emulator's
// packet throughput: one full switch traversal (ingress, forwarding,
// queueing, egress, delivery) per packet across the testbed fabric.
// CI gates it at 0 allocs/op, so it doubles as the allocation gate
// for the emunet pipeline.
//
//speedlight:allocgate emunet.Network.arrive emunet.Network.enqueue emunet.Network.scheduleTx emunet.Network.txCall
//speedlight:allocgate emunet.Network.transmit emunet.Network.deliverLocalCall emunet.Network.wireHop emunet.Network.drainNotifs
//speedlight:allocgate emunet.pktFIFO.push emunet.pktFIFO.peek emunet.pktFIFO.pop emunet.portQueue.head
func BenchmarkEmulationThroughput(b *testing.B) {
	ls, err := topology.NewLeafSpine(topology.LeafSpineConfig{
		Leaves: 2, Spines: 2, HostsPerLeaf: 3,
		HostLinkLatency:   sim.Microsecond,
		FabricLinkLatency: sim.Microsecond,
	})
	if err != nil {
		b.Fatal(err)
	}
	n, err := emunet.New(emunet.Config{Topo: ls.Topology, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	eng := n.Engine()
	b.ReportAllocs()
	b.ResetTimer()
	start := eng.Fired()
	for i := 0; i < b.N; i++ {
		pkt := n.NewPacket()
		pkt.DstHost, pkt.SrcPort, pkt.Proto, pkt.Size = 3, uint16(i), 6, 1000
		n.InjectFromHost(0, pkt)
		if i%1024 == 1023 {
			n.RunFor(sim.Millisecond)
		}
	}
	n.RunFor(10 * sim.Millisecond)
	b.ReportMetric(float64(eng.Fired()-start)/b.Elapsed().Seconds(), "events/sec")
}

// BenchmarkEmulationThroughputTelemetry is BenchmarkEmulationThroughput
// with full instrumentation attached, for a before/after overhead
// comparison (the telemetry contract is <5% on this path).
func BenchmarkEmulationThroughputTelemetry(b *testing.B) {
	ls, err := topology.NewLeafSpine(topology.LeafSpineConfig{
		Leaves: 2, Spines: 2, HostsPerLeaf: 3,
		HostLinkLatency:   sim.Microsecond,
		FabricLinkLatency: sim.Microsecond,
	})
	if err != nil {
		b.Fatal(err)
	}
	n, err := emunet.New(emunet.Config{
		Topo:     ls.Topology,
		Seed:     1,
		Registry: telemetry.NewRegistry(),
	})
	if err != nil {
		b.Fatal(err)
	}
	eng := n.Engine()
	b.ReportAllocs()
	b.ResetTimer()
	start := eng.Fired()
	for i := 0; i < b.N; i++ {
		pkt := n.NewPacket()
		pkt.DstHost, pkt.SrcPort, pkt.Proto, pkt.Size = 3, uint16(i), 6, 1000
		n.InjectFromHost(0, pkt)
		if i%1024 == 1023 {
			n.RunFor(sim.Millisecond)
		}
	}
	n.RunFor(10 * sim.Millisecond)
	b.ReportMetric(float64(eng.Fired()-start)/b.Elapsed().Seconds(), "events/sec")
}

// benchThroughputSnapshotting is the shared body of the trace-overhead
// benchmark pair: the emulation-throughput loop with a snapshot firing
// every 8192 injections, with or without the flight-recorder journal
// (the epoch causal tracer's only input) attached. Identical seed and
// workload, so the pair isolates exactly the journal-stamp cost.
func benchThroughputSnapshotting(b *testing.B, set *journal.Set) {
	ls, err := topology.NewLeafSpine(topology.LeafSpineConfig{
		Leaves: 2, Spines: 2, HostsPerLeaf: 3,
		HostLinkLatency:   sim.Microsecond,
		FabricLinkLatency: sim.Microsecond,
	})
	if err != nil {
		b.Fatal(err)
	}
	n, err := emunet.New(emunet.Config{Topo: ls.Topology, Seed: 1, Journal: set})
	if err != nil {
		b.Fatal(err)
	}
	eng := n.Engine()
	b.ReportAllocs()
	b.ResetTimer()
	start := eng.Fired()
	for i := 0; i < b.N; i++ {
		pkt := n.NewPacket()
		pkt.DstHost, pkt.SrcPort, pkt.Proto, pkt.Size = 3, uint16(i), 6, 1000
		n.InjectFromHost(0, pkt)
		if i%1024 == 1023 {
			n.RunFor(sim.Millisecond)
		}
		if i%8192 == 8191 {
			if _, err := n.ScheduleSnapshot(eng.Now().Add(sim.Millisecond)); err != nil {
				b.Fatal(err)
			}
		}
	}
	n.RunFor(10 * sim.Millisecond)
	b.ReportMetric(float64(eng.Fired()-start)/b.Elapsed().Seconds(), "events/sec")
}

// BenchmarkEmulationThroughputSnapshots is the trace-overhead baseline:
// snapshots firing, journal detached.
func BenchmarkEmulationThroughputSnapshots(b *testing.B) {
	benchThroughputSnapshotting(b, nil)
}

// BenchmarkEmulationThroughputTraced is the same workload with the
// journal attached — the configuration the epoch causal tracer
// consumes. Tracing is post-hoc reconstruction from the journal, so
// the steady-state cost is only the journal stamps on the protocol
// paths; the CI gate holds what it adds over
// BenchmarkEmulationThroughputSnapshots at 12 ns per event, and both
// at 0 allocs/op. The reconstruction runs once after the timed region
// to prove the journal it produced is traceable.
func BenchmarkEmulationThroughputTraced(b *testing.B) {
	set := journal.NewSet(0)
	benchThroughputSnapshotting(b, set)
	b.StopTimer()
	if b.N >= 8192 {
		if traces := epochtrace.Build(set.Events()); len(traces) == 0 {
			b.Fatal("journaled campaign reconstructed no epoch traces")
		}
	}
}

// BenchmarkTelemetryHotPath measures the instrumentation primitives on
// the per-packet path: a counter increment, a gauge high-water update,
// and a histogram observation. The contract is a few nanoseconds and
// zero allocations per operation.
func BenchmarkTelemetryHotPath(b *testing.B) {
	reg := telemetry.NewRegistry()
	c := reg.Counter("bench_pkts_total", "")
	g := reg.Gauge("bench_depth", "")
	h := reg.Histogram("bench_lat_us", "", telemetry.LatencyBucketsUS)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
		g.SetMax(int64(i & 1023))
		h.Observe(float64(i & 4095))
	}
}

// BenchmarkTelemetryHotPathDisabled measures the same call sites with
// telemetry disabled (nil metrics): the zero-overhead-when-disabled
// contract is one predicted branch per call.
func BenchmarkTelemetryHotPathDisabled(b *testing.B) {
	var reg *telemetry.Registry
	c := reg.Counter("bench_pkts_total", "")
	g := reg.Gauge("bench_depth", "")
	h := reg.Histogram("bench_lat_us", "", telemetry.LatencyBucketsUS)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
		g.SetMax(int64(i & 1023))
		h.Observe(float64(i & 4095))
	}
}

// benchFabrics are the scaling-benchmark topologies. Fabric latencies
// are widened to 2 µs so the conservative lookahead window (the minimum
// cross-shard link latency) holds enough events per barrier round to
// amortize synchronization; see DESIGN.md ("Parallel simulation").
func benchFabrics(b *testing.B) []struct {
	name string
	topo *topology.Topology
} {
	ls, err := topology.NewLeafSpine(topology.LeafSpineConfig{
		Leaves: 8, Spines: 4, HostsPerLeaf: 4,
		HostLinkLatency:   2 * sim.Microsecond,
		FabricLinkLatency: 2 * sim.Microsecond,
	})
	if err != nil {
		b.Fatal(err)
	}
	ft, err := topology.NewFatTree(topology.FatTreeConfig{
		K:                 4,
		HostLinkLatency:   2 * sim.Microsecond,
		FabricLinkLatency: 2 * sim.Microsecond,
	})
	if err != nil {
		b.Fatal(err)
	}
	return []struct {
		name string
		topo *topology.Topology
	}{
		{"leafspine8x4", ls.Topology},
		{"fattree4", ft.Topology},
	}
}

// BenchmarkShardScaling measures simulation throughput (simulator
// events per second of wall time) of the serial engine against the
// sharded parallel engine, on a leaf-spine and a fat-tree fabric under
// heavy shard-local traffic. The conformance suite proves the outputs
// byte-identical; this benchmark prices the difference. The ratios
// mean speedup only when the machine has at least as many CPUs as
// shards; below that the shards time-share cores and the sharded rows
// measure synchronization overhead. No CI gate reads it: CI reports
// sim.shard_speedup from cmd/bench's fabric_sharded workload, at a
// shard count clamped to the runner's CPUs.
//
//	go test -run '^$' -bench BenchmarkShardScaling -benchtime 5x
func BenchmarkShardScaling(b *testing.B) {
	for _, fab := range benchFabrics(b) {
		for _, shards := range []int{0, 2, 4, 8} {
			fab, shards := fab, shards
			b.Run(fmt.Sprintf("%s/shards%d", fab.name, shards), func(b *testing.B) {
				n, err := emunet.New(emunet.Config{
					Topo:   fab.topo,
					Seed:   1,
					Shards: shards,
				})
				if err != nil {
					b.Fatal(err)
				}
				eng := n.Engine()
				hosts := fab.topo.Hosts
				// One self-clocked traffic source per host, running in
				// the host's own shard domain so injection itself
				// parallelizes; only fabric hops cross shards.
				for _, h := range hosts {
					h := h
					p := n.HostProc(h.ID)
					r := eng.NewRand()
					var seq uint16
					p.NewTicker(sim.Microsecond, func() {
						dst := hosts[r.Intn(len(hosts))]
						if dst.ID == h.ID {
							return
						}
						seq++
						pkt := n.NewPacketFor(h.ID)
						pkt.DstHost = uint32(dst.ID)
						pkt.SrcPort = 1000 + seq
						pkt.DstPort = 80
						pkt.Proto = 6
						pkt.Size = 1000
						n.InjectFrom(p, h.ID, pkt)
					})
				}
				n.RunFor(sim.Millisecond) // warm up queues and flows
				b.ResetTimer()
				start := eng.Fired()
				for i := 0; i < b.N; i++ {
					n.RunFor(2 * sim.Millisecond)
				}
				b.StopTimer()
				fired := eng.Fired() - start
				if fired == 0 {
					b.Fatal("no events fired")
				}
				b.ReportMetric(float64(fired)/b.Elapsed().Seconds(), "events/sec")
				b.ReportMetric(float64(fired)/float64(b.N), "events/op")
			})
		}
	}
}

// benchStoreUnits enumerates the snapshot units of an emulated fabric:
// `switches` devices with `ports` ingress units each. 64x16 is the
// 1024-port configuration the snapstore benchmarks are gated on.
func benchStoreUnits(switches, ports int) []dataplane.UnitID {
	units := make([]dataplane.UnitID, 0, switches*ports)
	for sw := 0; sw < switches; sw++ {
		for p := 0; p < ports; p++ {
			units = append(units, dataplane.UnitID{
				Node: topology.NodeID(sw), Port: p, Dir: dataplane.Ingress,
			})
		}
	}
	return units
}

// benchGlobalSnapshot assembles a completed global snapshot over the
// given units, with per-unit values offset by salt so consecutive
// epochs differ at every register (the delta encoder's worst case).
func benchGlobalSnapshot(units []dataplane.UnitID, salt uint64) *observer.GlobalSnapshot {
	results := make(map[dataplane.UnitID]control.Result, len(units))
	for i, u := range units {
		results[u] = control.Result{
			Unit: u, Value: uint64(i)*7 + salt, Consistent: true,
		}
	}
	return &observer.GlobalSnapshot{ID: 1, Results: results, Consistent: true}
}

// BenchmarkStoreIngest measures full-epoch ingestion into the snapshot
// history store on a 1024-port fabric: one completed global snapshot
// in, one sealed delta-encoded epoch out, per iteration. Alternating
// value sets force a delta for every register — the encoder's worst
// case; steady fabrics seal far fewer.
func BenchmarkStoreIngest(b *testing.B) {
	units := benchStoreUnits(64, 16)
	gs := [2]*observer.GlobalSnapshot{
		benchGlobalSnapshot(units, 0),
		benchGlobalSnapshot(units, 1),
	}
	store := snapstore.New(snapstore.Config{Retention: 256, CheckpointEvery: 16})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := gs[i&1]
		g.ID = packet.SeqID(i + 1)
		store.Ingest(g, 0)
	}
	b.ReportMetric(float64(b.N)*float64(len(units))/b.Elapsed().Seconds(), "registers/sec")
}

// BenchmarkSnapshotIngestHot isolates the per-register ingest hot path
// — Store.Observe, the //speedlight:hotpath the hotalloc analyzer and
// the CI allocation gate hold at 0 allocs/op. Every observation lands
// a fresh value (no elision), and epochs seal at fabric width, so the
// occasional seal/checkpoint allocations amortize into the figure.
func BenchmarkSnapshotIngestHot(b *testing.B) {
	units := benchStoreUnits(64, 16)
	store := snapstore.New(snapstore.Config{Retention: 256, CheckpointEvery: 16})
	// Register every unit and seal a first epoch: steady state starts
	// with the unit table warm, as it is after one campaign epoch.
	store.Begin(1, 0)
	for _, u := range units {
		store.Observe(u, 0, true)
	}
	store.Seal(0, true, nil, 0)
	id := packet.SeqID(2)
	store.Begin(id, 0)
	n := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		store.Observe(units[n], uint64(i), true)
		if n++; n == len(units) {
			n = 0
			store.Seal(0, true, nil, 0)
			id++
			store.Begin(id, 0)
		}
	}
}

// BenchmarkSnapshotQuery prices the read side of the query plane under
// load: epoch-state reconstruction (nearest checkpoint plus forward
// delta replay) from a copy-on-write view of a 1024-port fabric, while
// a writer goroutine keeps sealing epochs into the same store. It
// reports queries/sec; cmd/bench's snapshot_storm workload carries the
// same cost as snapstore.state_query_us.
func BenchmarkSnapshotQuery(b *testing.B) {
	units := benchStoreUnits(64, 16)
	store := snapstore.New(snapstore.Config{Retention: 256, CheckpointEvery: 16})
	gs := [2]*observer.GlobalSnapshot{
		benchGlobalSnapshot(units, 0),
		benchGlobalSnapshot(units, 1),
	}
	ingest := func(i int) {
		g := gs[i&1]
		g.ID = packet.SeqID(i + 1)
		store.Ingest(g, 0)
	}
	// Fill retention so every query pays a realistic replay distance.
	epoch := 0
	for ; epoch < 256; epoch++ {
		ingest(epoch)
	}
	// The load: a single writer (the store's concurrency contract)
	// sealing continuously while the benchmark queries.
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
				ingest(epoch)
				epoch++
			}
		}
	}()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := store.View()
		epochs := v.Epochs()
		e := epochs[i%len(epochs)]
		st, err := v.State(e.ID)
		if err != nil {
			b.Fatal(err)
		}
		if len(st.Regs) != len(units) {
			b.Fatalf("reconstructed %d registers, want %d", len(st.Regs), len(units))
		}
	}
	b.StopTimer()
	close(stop)
	<-done
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "queries/sec")
}

// BenchmarkUDPSnapshot measures one complete snapshot round over the
// real UDP deployment: initiation datagrams out, result datagrams back,
// global assembly.
func BenchmarkUDPSnapshot(b *testing.B) {
	ls, err := topology.NewLeafSpine(topology.LeafSpineConfig{
		Leaves: 2, Spines: 2, HostsPerLeaf: 3,
		HostLinkLatency:   sim.Microsecond,
		FabricLinkLatency: sim.Microsecond,
	})
	if err != nil {
		b.Fatal(err)
	}
	d, err := wire.Deploy(wire.Config{Topo: ls.Topology})
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, done, err := d.TakeSnapshot()
		if err != nil {
			b.Fatal(err)
		}
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			b.Fatal("snapshot timed out")
		}
	}
}
