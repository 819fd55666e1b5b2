package main

import (
	"runtime"
	"syscall"
	"time"

	"speedlight"
	"speedlight/internal/control"
	"speedlight/internal/core"
	"speedlight/internal/counters"
	"speedlight/internal/dataplane"
	"speedlight/internal/journal"
	"speedlight/internal/observer"
	"speedlight/internal/packet"
	"speedlight/internal/routing"
	"speedlight/internal/sim"
	"speedlight/internal/snapstore"
	"speedlight/internal/telemetry"
	"speedlight/internal/topology"
)

// A layer cost card times one layer's public hot function in
// isolation, on inputs shaped like the workload's: the price of one
// call, which the traced run multiplies by the layer's call count to
// get its busy share of the run.

// cardShape is what a workload's inputs look like to a single layer.
type cardShape struct {
	channelState bool
	ports        int // ports of the workload's largest switch
	units        int // processing units network-wide
	queueDepth   int // pending simulator events, sampled during the run
}

// costCard calibrates a batch to about the scale's cardBatch, then
// reports the median ns per op of five batches and the allocations per
// op of one. op(n) performs n operations.
func costCard(sc scale, op func(n int)) (nsPerOp, allocsPerOp float64) {
	n := 64
	for {
		start := time.Now()
		op(n)
		if time.Since(start) >= sc.cardBatch/2 || n >= 1<<22 {
			break
		}
		n *= 2
	}
	var samples []float64
	for i := 0; i < 5; i++ {
		start := time.Now()
		op(n)
		samples = append(samples, float64(time.Since(start).Nanoseconds())/float64(n))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	op(n)
	runtime.ReadMemStats(&after)
	return median(samples), float64(after.Mallocs-before.Mallocs) / float64(n)
}

func packetCount(dataplane.UnitID) core.Metric { return &counters.PacketCount{} }

// cardSwitch builds one switch of the workload's port count with a
// route to host 10 over the upper half of its ports.
func cardSwitch(sh cardShape) (*dataplane.Switch, error) {
	var hops []int
	for p := sh.ports / 2; p < sh.ports; p++ {
		hops = append(hops, p)
	}
	return dataplane.New(dataplane.Config{
		Node: 0, NumPorts: sh.ports, MaxID: 256, WrapAround: true, ChannelState: sh.channelState,
		Metrics:  packetCount,
		FIB:      &routing.FIB{Node: 0, Version: 1, NextHops: map[topology.HostID][]int{10: hops}},
		Balancer: routing.ECMP{},
	})
}

// layerCards runs every cost card that applies to the workload and
// records it on the traced run.
func layerCards(r *run, w *workload) {
	sc, sh := r.sc, w.shape
	r.tr.begin("cards")
	defer r.tr.end()

	// core: Unit.OnPacket on an egress unit of the workload's fan-in,
	// the epoch advancing every 1024 packets.
	unit, err := core.NewUnit(core.Config{
		MaxID: 256, WrapAround: true, ChannelState: sh.channelState,
		NumChannels: sh.ports + 1, CPChannel: sh.ports,
	}, &counters.PacketCount{})
	if err != nil {
		r.failf(1, "core card: %v", err)
		return
	}
	pkt := &packet.Packet{HasSnap: true, Snap: packet.SnapshotHeader{Type: packet.TypeData}}
	i := 0
	ns, allocs := costCard(sc, func(n int) {
		for k := 0; k < n; k++ {
			pkt.Snap.ID = packet.WireIDFromRaw(uint32(i/1024) % 256)
			unit.OnPacket(pkt, i%sh.ports)
			i++
		}
	})
	r.add("core.on_packet_ns", ns)
	r.add("core.on_packet_allocs", allocs)

	// dataplane: Switch.Ingress + Switch.Egress of one packet.
	sw, err := cardSwitch(sh)
	if err != nil {
		r.failf(1, "dataplane card: %v", err)
		return
	}
	dpkt := &packet.Packet{}
	j := 0
	ns, allocs = costCard(sc, func(n int) {
		for k := 0; k < n; k++ {
			*dpkt = packet.Packet{DstHost: 10, SrcPort: uint16(j), Size: 1000}
			res := sw.Ingress(dpkt, j%(sh.ports/2), 0)
			sw.Egress(dpkt, res.EgressPort, 0)
			if j++; j%512 == 0 {
				for {
					if _, ok := sw.PopNotif(); !ok {
						break
					}
				}
			}
		}
	})
	r.add("dataplane.pipeline_ns", ns)
	r.add("dataplane.pipeline_allocs", allocs)

	// packet: the snapshot header codec, and a pool round trip.
	hdr := packet.SnapshotHeader{Type: packet.TypeData, ID: 123456, Channel: 17}
	buf := make([]byte, 0, packet.HeaderLen)
	ns, _ = costCard(sc, func(n int) {
		for k := 0; k < n; k++ {
			buf = hdr.AppendBinary(buf[:0])
			var out packet.SnapshotHeader
			if err := out.UnmarshalBinary(buf); err != nil {
				panic(err)
			}
		}
	})
	r.add("packet.header_codec_ns", ns)
	pool := packet.NewCentral().NewPool()
	ns, _ = costCard(sc, func(n int) {
		for k := 0; k < n; k++ {
			pool.Put(pool.Get())
		}
	})
	r.add("packet.pool_get_put_ns", ns)

	// journal: one Append of a unit record.
	ring := journal.New(tailRing)
	ns, allocs = costCard(sc, func(n int) {
		for k := 0; k < n; k++ {
			ring.Append(journal.Record(int64(k), 0, k&7, journal.DirIngress, 0, 1, 2, 2))
		}
	})
	r.add("journal.append_ns", ns)
	r.add("journal.append_allocs", allocs)

	// telemetry: the per-packet primitives, enabled.
	reg := telemetry.NewRegistry()
	c, g := reg.Counter("bench_pkts_total", ""), reg.Gauge("bench_depth", "")
	h := reg.Histogram("bench_lat_us", "", telemetry.LatencyBucketsUS)
	ns, _ = costCard(sc, func(n int) {
		for k := 0; k < n; k++ {
			c.Inc()
			g.SetMax(int64(k & 1023))
			h.Observe(float64(k & 4095))
		}
	})
	r.add("telemetry.hotpath_ns", ns)

	controlCards(r, sh)
	observerCard(r, sh)
	facadeCard(r)
	if w.des {
		simCards(r, sh, w.name == wFabricSharded)
		storeCard(r, sh)
	}

	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		r.add("process.peak_rss_mb", float64(ru.Maxrss)/1024) // Linux reports KiB
	}
}

// controlCards times Plane.Initiate and Plane.HandleNotification on
// one switch. Each epoch initiates, carries the initiation packets
// through egress as the runtimes do, then services the notifications
// that produced; only the control-plane calls are timed.
func controlCards(r *run, sh cardShape) {
	sw, err := cardSwitch(sh)
	if err != nil {
		r.failf(1, "control card: %v", err)
		return
	}
	cp, err := control.New(control.Config{Switch: sw, OnResult: func(control.Result) {}})
	if err != nil {
		r.failf(1, "control card: %v", err)
		return
	}
	var initTime, notifTime time.Duration
	var inits, notifs int
	var pending []dataplane.CPUNotification
	deadline := time.Now().Add(5 * r.sc.cardBatch)
	for id := packet.SeqID(1); time.Now().Before(deadline); id++ {
		t0 := time.Now()
		out := cp.Initiate(id, 0)
		initTime += time.Since(t0)
		inits++
		for _, init := range out {
			sw.Egress(init.Pkt, init.Port, 0)
		}
		pending = pending[:0]
		for {
			n, ok := sw.PopNotif()
			if !ok {
				break
			}
			pending = append(pending, n)
		}
		t0 = time.Now()
		for _, n := range pending {
			cp.HandleNotification(n, 0)
		}
		notifTime += time.Since(t0)
		notifs += len(pending)
	}
	r.add("control.initiate_us", us(initTime)/float64(inits))
	r.add("control.notification_ns", float64(notifTime.Nanoseconds())/float64(notifs))
}

// observerCard times Observer.OnResult while it assembles snapshots of
// the workload's unit count. Begin is not timed.
func observerCard(r *run, sh cardShape) {
	obs, err := observer.New(observer.Config{
		MaxID: 256, WrapAround: true, OnComplete: func(*observer.GlobalSnapshot) {},
	})
	if err != nil {
		r.failf(1, "observer card: %v", err)
		return
	}
	units := make([]dataplane.UnitID, sh.units)
	for i := range units {
		units[i] = dataplane.UnitID{Node: 0, Port: i / 2, Dir: dataplane.Direction(i % 2)}
	}
	obs.Register(0, units)
	var total time.Duration
	results := 0
	deadline := time.Now().Add(5 * r.sc.cardBatch)
	for time.Now().Before(deadline) {
		id, err := obs.Begin(0)
		if err != nil {
			r.failf(1, "observer card: %v", err)
			return
		}
		t0 := time.Now()
		for _, u := range units {
			obs.OnResult(control.Result{Unit: u, SnapshotID: id, Value: uint64(id), Consistent: true}, 0)
		}
		total += time.Since(t0)
		results += len(units)
	}
	r.add("observer.result_ns", float64(total.Nanoseconds())/float64(results))
}

// facadeCard times one round of the public API: Send, Run, Snapshot.
func facadeCard(r *run) {
	net, err := speedlight.New(speedlight.Config{Seed: r.opt.seed})
	if err != nil {
		r.failf(1, "facade card: %v", err)
		return
	}
	hosts := net.Hosts()
	var samples []float64
	for round := 0; round < 20; round++ {
		t0 := time.Now()
		for i := 0; i < 10; i++ {
			net.Send(hosts[0], hosts[len(hosts)-1], 1000, uint16(round*10+i), 80)
		}
		net.Run(100 * time.Microsecond)
		snap, err := net.Snapshot()
		samples = append(samples, us(time.Since(t0)))
		if err != nil || !snap.Consistent {
			r.failf(1, "facade card: snapshot failed (%v)", err)
			return
		}
	}
	r.add("speedlight.snapshot_us", median(samples))
}

func noopCall(_, _ any, _ int64) {}

// simCards times the event queue. Serial: one closure-free AfterCall
// plus one Step with the workload's queue depth pending. Parallel: a
// two-shard ping-pong, every event a cross-shard ring handoff one
// lookahead out.
func simCards(r *run, sh cardShape, parallel bool) {
	eng := sim.NewEngine(1)
	proc := eng.Proc(1)
	rng := eng.NewRand()
	const horizon = 64 * sim.Microsecond // the spread of pending timestamps
	for i := 0; i < sh.queueDepth; i++ {
		proc.AfterCall(sim.Duration(rng.Int63n(int64(horizon))), noopCall, nil, nil, 0)
	}
	ns, allocs := costCard(r.sc, func(n int) {
		for k := 0; k < n; k++ {
			proc.AfterCall(sim.Duration(rng.Int63n(int64(horizon))), noopCall, nil, nil, 0)
			eng.Step()
		}
	})
	r.add("sim.event_ns", ns)
	r.add("sim.event_allocs", allocs)
	if !parallel {
		return
	}

	const lookahead = 2 * sim.Microsecond
	p := sim.NewParallel(1, 2, lookahead)
	p.Place(1, 0)
	p.Place(2, 1)
	p.SetShardLinks([]sim.ShardLink{{From: 0, To: 1, Lookahead: lookahead}, {From: 1, To: 0, Lookahead: lookahead}})
	procs := [3]sim.Proc{nil, p.Proc(1), p.Proc(2)}
	var bounce sim.CallFn
	bounce = func(_, _ any, dom int64) {
		procs[dom].SendCall(int(3-dom), lookahead, bounce, nil, nil, 3-dom)
	}
	// One chain each way, so both shards are busy in every window and
	// the engine cannot fall back to running a lone shard inline.
	procs[1].SendCall(2, lookahead, bounce, nil, nil, 2)
	procs[2].SendCall(1, lookahead, bounce, nil, nil, 1)
	ns, _ = costCard(r.sc, func(n int) { p.RunFor(sim.Duration(n/2) * lookahead) })
	r.add("sim.cross_shard_event_ns", ns)
}

// storeCard times Store.Ingest of a snapshot the workload's size with
// every register changed since the last epoch, at the storm's
// retention and checkpoint settings.
func storeCard(r *run, sh cardShape) {
	var snaps [2]*observer.GlobalSnapshot
	for s := range snaps {
		results := make(map[dataplane.UnitID]control.Result, sh.units)
		for i := 0; i < sh.units; i++ {
			u := dataplane.UnitID{Node: topology.NodeID(i / 64), Port: (i % 64) / 2, Dir: dataplane.Direction(i % 2)}
			results[u] = control.Result{Unit: u, Value: uint64(i*7 + s), Consistent: true}
		}
		snaps[s] = &observer.GlobalSnapshot{Results: results, Consistent: true}
	}
	store := snapstore.New(snapstore.Config{Retention: 256, CheckpointEvery: 16})
	id := 0
	ns, _ := costCard(r.sc, func(n int) {
		for k := 0; k < n; k++ {
			g := snaps[id&1]
			id++
			g.ID = packet.SeqID(id)
			store.Ingest(g, 0)
		}
	})
	r.add("snapstore.ingest_ns_per_reg", ns/float64(sh.units))
}

// busyShares turns the traced run's counts and the cost cards into
// each layer's share of the CPU time the run had: count x card ns /
// (run wall x workers). dataplane's share is its self time, the
// pipeline minus the two core.OnPacket calls inside it. Whatever the
// cards do not explain is emunet's residual: queues, wire, glue.
func busyShares(r *run, w *workload, wallNs float64) {
	m := func(name string) float64 {
		if len(r.samples[name]) == 0 {
			return 0
		}
		return r.med(name)
	}
	cpu := wallNs * float64(w.workers)
	unitCalls := m("dataplane.packets_ingress") + m("dataplane.packets_egress")
	shares := map[string]float64{
		"core.busy_share":      unitCalls * m("core.on_packet_ns"),
		"dataplane.busy_share": unitCalls * (m("dataplane.pipeline_ns")/2 - m("core.on_packet_ns")),
		"control.busy_share": m("control.notifs_serviced")*m("control.notification_ns") +
			(m("control.initiations")+m("control.reinitiations"))*m("control.initiate_us")*1e3,
		"observer.busy_share": m("control.results") * m("observer.result_ns"),
	}
	if w.des {
		shares["sim.busy_share"] = m("sim.events") * m("sim.event_ns")
		shares["snapstore.busy_share"] = m("snapstore.seals") * float64(w.shape.units) * m("snapstore.ingest_ns_per_reg")
	}
	rest := 1.0
	for name, busyNs := range shares {
		if !specByName[name].on(w.name) {
			continue // wire_udp has no registry counts to multiply
		}
		share := busyNs / cpu
		if share < 0 {
			share = 0
		}
		r.add(name, share)
		rest -= share
	}
	if w.des {
		r.add("emunet.residual_share", rest)
	}
}
