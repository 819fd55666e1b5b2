package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"speedlight/internal/audit"
	"speedlight/internal/core"
	"speedlight/internal/dataplane"
	"speedlight/internal/emunet"
	"speedlight/internal/epochtrace"
	"speedlight/internal/journal"
	"speedlight/internal/observer"
	"speedlight/internal/packet"
	"speedlight/internal/sim"
	"speedlight/internal/snapstore"
	"speedlight/internal/telemetry"
	"speedlight/internal/topology"
)

// snapLead is how far ahead of "now" every DES snapshot's local-clock
// deadline lies. With a deadline in the past, control planes whose
// clocks run ahead all fire at once and the Fig. 9 spread is cut off.
// virt_epoch_latency counts from the Begin call, so it includes it.
const snapLead = sim.Millisecond

// Per-switch journal ring capacities of the traced runs. The fabric
// runs journal some 18 k events and keep them all. The storm and the
// realtime runtimes journal millions; their rings keep a tail of a
// dozen or so whole epochs, which is what the auditor and the epoch
// tracer then explain - merging and auditing a larger tail costs
// seconds per repetition and a gigabyte of heap.
const (
	fabricRing = 1 << 16
	tailRing   = 1 << 13
)

// instruments are what the traced run attaches to the program.
type instruments struct {
	reg  *telemetry.Registry
	jset *journal.Set
}

func (r *run) instruments(ring int) instruments {
	if !r.traced() {
		return instruments{}
	}
	return instruments{reg: telemetry.NewRegistry(), jset: journal.NewSet(ring)}
}

// shardCount is fabric_sharded's Shards: one per CPU, at least two so
// the parallel engine is what runs, at most eight.
func shardCount() int {
	n := runtime.NumCPU()
	if n < 2 {
		n = 2
	}
	if n > 8 {
		n = 8
	}
	return n
}

func leafSpine(leaves, spines, hosts int) (*topology.LeafSpine, error) {
	return topology.NewLeafSpine(topology.LeafSpineConfig{
		Leaves: leaves, Spines: spines, HostsPerLeaf: hosts,
		HostLinkLatency:   2 * sim.Microsecond,
		FabricLinkLatency: 2 * sim.Microsecond,
	})
}

// dropped is every packet the fabric has lost: full egress queues,
// injected wire loss, churn. A fabric that has drained has delivered
// every injected packet but these, which needs no Registry to know.
func dropped(n *emunet.Network) uint64 {
	return n.QueueDropsTotal() + n.WireDrops() + n.ChurnDrops()
}

// snapshotDigest hashes every completed global snapshot: ID, both
// timestamps, verdict, exclusions, and each unit's value in unit
// order. Two runs with equal digests published the same snapshots.
func snapshotDigest(snaps []*observer.GlobalSnapshot) string {
	h := sha256.New()
	w := func(vs ...uint64) {
		var b [8]byte
		for _, v := range vs {
			binary.BigEndian.PutUint64(b[:], v)
			h.Write(b[:])
		}
	}
	bit := func(b bool) uint64 {
		if b {
			return 1
		}
		return 0
	}
	for _, g := range snaps {
		w(uint64(g.ID), uint64(g.ScheduledAt), uint64(g.CompletedAt), bit(g.Consistent), uint64(len(g.Excluded)))
		for _, node := range g.Excluded {
			w(uint64(node))
		}
		units := make([]dataplane.UnitID, 0, len(g.Results))
		for u := range g.Results {
			units = append(units, u)
		}
		sort.Slice(units, func(a, b int) bool { return unitLess(units[a], units[b]) })
		for _, u := range units {
			res := g.Results[u]
			w(uint64(u.Node), uint64(u.Port), uint64(u.Dir), res.Value, bit(res.Consistent))
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}

func unitLess(a, b dataplane.UnitID) bool {
	if a.Node != b.Node {
		return a.Node < b.Node
	}
	if a.Port != b.Port {
		return a.Port < b.Port
	}
	return a.Dir < b.Dir
}

// checkSnapshots verifies the DES output: the expected number of
// snapshots completed, each consistent, with no device excluded and a
// result from every unit. It returns which passed, in completion
// order, and the per-epoch virtual latency and sync spread.
func (r *run) checkSnapshots(n *emunet.Network, want, units int) (good []bool, latUS, spreadUS []float64) {
	snaps := n.Snapshots()
	if len(snaps) != want {
		r.failf(int64(want-len(snaps)), "%d of %d snapshots completed", len(snaps), want)
	}
	good = make([]bool, len(snaps))
	for i, g := range snaps {
		switch {
		case !g.Consistent:
			r.failf(1, "snapshot %d inconsistent", g.ID)
		case len(g.Excluded) > 0:
			r.failf(1, "snapshot %d excluded %d device(s)", g.ID, len(g.Excluded))
		case len(g.Results) != units:
			r.failf(1, "snapshot %d has %d of %d unit results", g.ID, len(g.Results), units)
		default:
			good[i] = true
		}
		latUS = append(latUS, g.CompletedAt.Sub(g.ScheduledAt).Micros())
		if d, ok := n.SyncSpread(g.ID); ok {
			spreadUS = append(spreadUS, d.Micros())
		}
	}
	return good, latUS, spreadUS
}

// fabricRep is one repetition of fabric_serial (shards 0) or
// fabric_sharded: a fresh 8x4 leaf-spine, one in-domain ticker per
// host sending 1000 B to the other hosts in an order the seed decides,
// channel state on, a snapshot on a fixed virtual grid.
func fabricRep(r *run, shards int) {
	sc, tr := r.sc, r.tr
	ins := r.instruments(fabricRing)
	runtime.GC()

	var (
		ls       *topology.LeafSpine
		n        *emunet.Network
		err      error
		tickers  []*sim.Ticker
		injected []uint64
		newTime  time.Duration
	)
	store := snapstore.New(snapstore.Config{Registry: ins.reg})
	setup := timed(tr, "setup", func() {
		ls, err = r.buildTopo(func() (*topology.LeafSpine, error) { return leafSpine(8, 4, 4) })
		if err != nil {
			return
		}
		newTime = timed(tr, "emunet.New", func() {
			n, err = emunet.New(emunet.Config{
				Topo: ls.Topology, Seed: r.opt.seed, Shards: shards,
				MaxID: 256, WrapAround: true, ChannelState: true,
				Snapstore: store, Registry: ins.reg, Journal: ins.jset,
			})
		})
		if err != nil {
			return
		}
		// The destination sequence of every host comes from the
		// benchmark's seed, not from the engine's random stream.
		rng := rand.New(rand.NewSource(r.opt.seed))
		hosts := ls.Hosts
		injected = make([]uint64, len(hosts))
		for i, h := range hosts {
			i, h := i, h
			// Every other host 33 times, in an order the seed decides:
			// the load on every path is the same for every seed, so
			// seeds differ in interleaving and not in how much traffic
			// crosses shards.
			var dsts []uint32
			for j, d := range hosts {
				for k := 0; k < 33 && j != i; k++ {
					dsts = append(dsts, uint32(d.ID))
				}
			}
			rng.Shuffle(len(dsts), func(a, b int) { dsts[a], dsts[b] = dsts[b], dsts[a] })
			p := n.HostProc(h.ID)
			var seq uint16
			tickers = append(tickers, p.NewTicker(sc.fabricTick, func() {
				seq++
				pkt := n.NewPacketFor(h.ID)
				pkt.DstHost = dsts[int(seq)%len(dsts)]
				pkt.SrcPort = 1000 + seq
				pkt.DstPort = 80
				pkt.Proto = 6
				pkt.Size = 1000
				n.InjectFrom(p, h.ID, pkt)
				injected[i]++
			}))
		}
		timed(tr, "warmup", func() { n.RunFor(sc.fabricWarm) })
	})
	if err != nil {
		r.failf(1, "set-up: %v", err)
		return
	}
	sumInjected := func() (t uint64) {
		for _, c := range injected {
			t += c
		}
		return t
	}

	eng := n.Engine()
	fired0, inj0 := eng.Fired(), sumInjected()
	var schedUS []float64
	// One slice per snapshot interval: the ScheduleSnapshot call and the
	// virtual time up to the next one, in which the snapshot completes.
	slices := make([]slice, 0, sc.fabricSnaps)
	var pace *pacer
	reg0 := readRegistry(ins.reg)
	mem := startMem()
	wall := timed(tr, "run", func() {
		pace = r.newPacer()
		for s := 0; s < sc.fabricSnaps; s++ {
			r.attempted++
			t0, f0, i0, s0 := time.Now(), eng.Fired(), sumInjected(), len(n.Snapshots())
			d := timed(tr, "ScheduleSnapshot", func() {
				if _, err := n.ScheduleSnapshot(eng.Now().Add(snapLead)); err != nil {
					r.failf(1, "snapshot refused: %v", err)
				}
			})
			schedUS = append(schedUS, float64(d.Nanoseconds())/1e3)
			for k := 0; k < 2; k++ {
				timed(tr, "RunFor", func() { n.RunFor(sc.fabricEvery / 2) })
				r.pending = append(r.pending, float64(eng.Pending()))
			}
			// Packets are counted where they enter: the fabric is open
			// loop and loses none (checked below), so what a slice
			// injects it delivers, but for the handful in flight.
			slices = append(slices, pace.mark(slice{wall: time.Since(t0), ops: eng.Fired() - f0,
				packets: sumInjected() - i0, snapLo: s0, snapHi: len(n.Snapshots())}))
		}
		for _, t := range tickers {
			t.Stop()
		}
		timed(tr, "RunFor", func() { n.RunFor(sc.fabricDrain) })
	})
	alloc, gcPause := mem.stop()
	events := eng.Fired() - fired0
	// The region ends drained, so it delivered what it sent but for
	// drops (and for the few packets the warm-up left in flight).
	sent := sumInjected() - inj0
	lost := dropped(n)
	delivered := sent - lost

	tr.begin("verify")
	units := 0
	for _, sw := range ls.Switches {
		units += 2 * len(sw.Ports)
	}
	good, latUS, spreadUS := r.checkSnapshots(n, sc.fabricSnaps, units)
	r.attempted += int64(sent)
	if lost != 0 {
		r.failf(int64(lost), "%d of %d packets undelivered (queue drops %d)", lost, sumInjected(), n.QueueDropsTotal())
	}
	if store.Sealed() != uint64(len(n.Snapshots())) {
		r.failf(1, "snapstore sealed %d of %d epochs", store.Sealed(), len(n.Snapshots()))
	}
	r.setDigest(snapshotDigest(n.Snapshots()))
	r.setFired(events)
	tr.end()

	wall -= pace.took // the reference batches are no part of the repetition
	r.walls = append(r.walls, wall.Seconds())
	r.add("setup_s", setup.Seconds()*pace.speed())
	r.addSlices(countGood(slices, good), "ops_per_s", "events_per_s", "packets_per_s", "snapshots_per_s")
	r.add("alloc_bytes_per_op", float64(alloc)/float64(events))
	r.add("virt_epoch_latency_us_p50", percentile(latUS, 0.5))
	r.add("virt_sync_spread_us_p50", percentile(spreadUS, 0.5))

	if r.traced() {
		r.desLayers(n, ins, desRep{
			wall: wall, newTime: newTime, schedUS: schedUS, events: events,
			gcPause: gcPause, counts: readRegistry(ins.reg).since(reg0),
		})
		r.add("sim.events_per_packet", float64(events)/float64(delivered))
	}
}

// desRep is what a traced DES repetition hands to desLayers.
type desRep struct {
	wall, newTime, gcPause time.Duration
	schedUS                []float64
	events                 uint64
	counts                 map[string]float64 // registry, over the measured region
}

// regNames maps the benchmark's per-layer counts to registry series.
var regNames = map[string]string{
	"dataplane.packets_ingress":        "speedlight_dp_packets_ingress_total",
	"dataplane.packets_egress":         "speedlight_dp_packets_egress_total",
	"dataplane.notifs_generated":       "speedlight_dp_notifs_generated_total",
	"dataplane.notifs_dropped":         "speedlight_dp_notifs_dropped_total",
	"dataplane.notif_queue_high_water": "speedlight_dp_notif_queue_high_water",
	"dataplane.markers":                "speedlight_dp_markers_total",
	"dataplane.recirculations":         "speedlight_dp_recirculations_total",
	"control.notifs_serviced":          "speedlight_cp_notifs_serviced_total",
	"control.initiations":              "speedlight_cp_initiations_total",
	"control.reinitiations":            "speedlight_cp_reinitiations_total",
	"control.polls":                    "speedlight_cp_polls_total",
	"control.results":                  "speedlight_cp_results_total",
	"observer.snapshots_begun":         "speedlight_obs_snapshots_begun_total",
	"observer.snapshots_completed":     "speedlight_obs_snapshots_completed_total",
	"observer.retries":                 "speedlight_obs_retries_total",
	"observer.exclusions":              "speedlight_obs_exclusions_total",
}

var desRegNames = map[string]string{
	"emunet.packets_injected":  "speedlight_net_packets_injected_total",
	"emunet.packets_delivered": "speedlight_net_packets_delivered_total",
	"emunet.queue_drops":       "speedlight_net_queue_drops_total",
	"emunet.wire_drops":        "speedlight_net_wire_drops_total",
	"emunet.queue_high_water":  "speedlight_net_queue_high_water",
	"snapstore.seals":          "speedlight_snapstore_seals_total",
	"snapstore.deltas":         "speedlight_snapstore_deltas_total",
	"snapstore.bases":          "speedlight_snapstore_bases_total",
	"snapstore.promotions":     "speedlight_snapstore_promotions_total",
}

// addCounts records the registry-backed counts of one traced
// repetition's measured region.
func (r *run) addCounts(counts map[string]float64, names map[string]string) {
	for name, series := range names {
		r.add(name, counts[series])
	}
}

// journalLayers records what explaining the repetition costs: merging
// the journal, auditing it, and rebuilding the epoch traces. The audit
// must be clean: no snapshot it proves inconsistent, none it disagrees
// with the observer about.
func (r *run) journalLayers(jset *journal.Set, runAudit func() *audit.Report) (events []journal.Event) {
	tr := r.tr
	d := timed(tr, "Journal.Events", func() { events = jset.Events() })
	r.add("journal.events_ms", ms(d))
	r.add("journal.events_appended", float64(jset.Appended()))
	r.add("journal.events_overwritten", float64(jset.Overwritten()))
	perEvent := func(d time.Duration) float64 {
		if len(events) == 0 {
			return 0
		}
		return float64(d.Nanoseconds()) / float64(len(events))
	}
	var rep *audit.Report
	d = timed(tr, "Audit", func() { rep = runAudit() })
	_, bad, _ := rep.Counts()
	bad += rep.Disagreements
	r.add("audit.run_ms", ms(d))
	r.add("audit.ns_per_event", perEvent(d))
	r.add("audit.verdicts_bad", float64(bad))
	if bad > 0 {
		r.failf(int64(bad), "traced run's audit has %d bad verdict(s)", bad)
	}
	d = timed(tr, "EpochTraces", func() { epochtrace.Build(events) })
	r.add("epochtrace.build_ms", ms(d))
	r.add("epochtrace.ns_per_event", perEvent(d))
	return events
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// firstTryShare is the share of the snapshots whose Begin the journal
// still holds that the observer never ordered a retry for. Retries are
// journaled per device, so a snapshot that needed any counts once.
func firstTryShare(events []journal.Event) float64 {
	retried := map[packet.SeqID]bool{} // begun snapshot -> retried
	for _, ev := range events {
		switch ev.Kind {
		case journal.KindObsBegin:
			retried[ev.SnapshotID] = false
		case journal.KindObsRetry:
			if _, begun := retried[ev.SnapshotID]; begun {
				retried[ev.SnapshotID] = true
			}
		}
	}
	if len(retried) == 0 {
		return 0
	}
	first := 0
	for _, again := range retried {
		if !again {
			first++
		}
	}
	return float64(first) / float64(len(retried))
}

// desLayers records the per-layer counts and driver-call timings of a
// traced DES repetition.
func (r *run) desLayers(n *emunet.Network, ins instruments, rep desRep) {
	r.addCounts(rep.counts, regNames)
	r.addCounts(rep.counts, desRegNames)
	r.add("sim.events", float64(rep.events))
	r.add("emunet.new_ms", ms(rep.newTime))
	r.add("emunet.run_s", rep.wall.Seconds())
	r.add("emunet.schedule_snapshot_us", median(rep.schedUS))
	r.add("process.gc_pause_ms", ms(rep.gcPause))

	events := r.journalLayers(ins.jset, n.Audit)
	r.add("observer.first_try_share", firstTryShare(events))

	// The engine's profile is cumulative since construction, so it
	// includes the warm-up's millisecond.
	if prof := n.BarrierProfile(); prof != nil {
		var work, wait int64
		for _, sh := range prof {
			work += sh.WorkNs
			wait += sh.WaitNs
		}
		r.add("sim.shard_work_ns", float64(work))
		r.add("sim.shard_wait_ns", float64(wait))
		share := 0.0
		if work+wait > 0 {
			share = float64(wait) / float64(work+wait)
		}
		r.add("sim.wait_share", share)
		top := 0.0
		if blocked := n.BlockedProfile(); len(blocked) > 0 {
			top = float64(blocked[0].WaitNs)
		}
		r.add("sim.top_blocked_pair_ns", top)
	}
}

// clockGauge is the storm's snapshot target: the unit's own virtual
// clock in microseconds. With no data traffic a packet counter would
// read zero forever and every sealed epoch would be an empty delta
// set; a free-running register makes each epoch change all 576
// values, the delta encoder's worst case, so ingest and history
// queries do real work.
type clockGauge struct{ now func() sim.Time }

func (g clockGauge) Read() uint64                             { return uint64(g.now()) / uint64(sim.Microsecond) }
func (g clockGauge) Update(*packet.Packet)                    {}
func (g clockGauge) Absorb(v uint64, _ *packet.Packet) uint64 { return v }

// stormRep is one repetition of snapshot_storm: a 288-port leaf-spine
// with no data traffic, an open-loop in-simulation snapshot ticker at
// 50 Hz virtual, and history queries beside the writes.
func stormRep(r *run) {
	sc, tr := r.sc, r.tr
	ins := r.instruments(tailRing)
	runtime.GC()

	const period = 20 * sim.Millisecond // 50 Hz virtual
	var (
		ls      *topology.LeafSpine
		n       *emunet.Network
		err     error
		newTime time.Duration
		begun   int
		refused int
		schedUS []float64
	)
	store := snapstore.New(snapstore.Config{Retention: 256, CheckpointEvery: 16, Registry: ins.reg})
	var ticker *sim.Ticker
	setup := timed(tr, "setup", func() {
		ls, err = r.buildTopo(func() (*topology.LeafSpine, error) { return leafSpine(8, 4, 28) })
		if err != nil {
			return
		}
		newTime = timed(tr, "emunet.New", func() {
			n, err = emunet.New(emunet.Config{
				Topo: ls.Topology, Seed: r.opt.seed,
				MaxID: 256, WrapAround: true, ChannelState: false,
				Metrics: func(net *emunet.Network, id dataplane.UnitID) core.Metric {
					return clockGauge{now: net.Proc(id.Node).Now}
				},
				Snapstore: store, Registry: ins.reg, Journal: ins.jset,
			})
		})
		if err != nil {
			return
		}
		eng := n.Engine()
		ticker = eng.NewTicker(period, func() {
			begun++
			t0 := time.Now()
			_, err := n.ScheduleSnapshot(eng.Now().Add(snapLead))
			schedUS = append(schedUS, us(time.Since(t0)))
			if err != nil {
				refused++
			}
		})
		timed(tr, "warmup", func() { n.RunFor(sim.Duration(sc.stormWarmEpochs) * period) })
	})
	if err != nil {
		r.failf(1, "set-up: %v", err)
		return
	}
	eng := n.Engine()
	warmBegun := begun
	fired0 := eng.Fired()
	rng := rand.New(rand.NewSource(r.opt.seed))

	var (
		queries, badQueries int
		stateTime, diffTime time.Duration
		verifyTime          time.Duration
	)
	// querySlice reads history beside the writes: State and Diff on
	// epochs drawn from the seed, each checked against the global
	// snapshot it was ingested from. Only the query calls are timed;
	// indexing the new snapshots and checking answers is the
	// benchmark's own work and comes off the run's host time.
	byID := map[packet.SeqID]*observer.GlobalSnapshot{}
	querySlice := func() {
		v0 := time.Now()
		for _, g := range n.Snapshots()[len(byID):] {
			byID[g.ID] = g
		}
		verifyTime += time.Since(v0)
		view := store.View()
		epochs := view.Epochs()
		if len(epochs) == 0 {
			r.failf(1, "query slice found an empty history")
			return
		}
		pick := func() packet.SeqID { return epochs[rng.Intn(len(epochs))].ID }
		tr.begin("View.State")
		for q := 0; q < sc.stormStates; q++ {
			id := pick()
			t0 := time.Now()
			st, err := view.State(id)
			stateTime += time.Since(t0)
			queries++
			v0 := time.Now()
			if err != nil || !stateMatches(st, byID[id]) {
				badQueries++
			}
			verifyTime += time.Since(v0)
		}
		tr.endCalls(sc.stormStates)
		tr.begin("View.Diff")
		for q := 0; q < sc.stormDiffs; q++ {
			from, to := pick(), pick()
			t0 := time.Now()
			diff, err := view.Diff(from, to)
			diffTime += time.Since(t0)
			queries++
			v0 := time.Now()
			if err != nil || !diffMatches(diff, byID[from], byID[to]) {
				badQueries++
			}
			verifyTime += time.Since(v0)
		}
		tr.endCalls(sc.stormDiffs)
	}

	// One slice per query interval: the epochs up to it and the queries
	// themselves. Checking their answers is the benchmark's own work
	// and is in no slice.
	slices := make([]slice, 0, sc.stormEpochs/sc.stormQueryEvery+1)
	var pace *pacer
	reg0 := readRegistry(ins.reg)
	mem := startMem()
	wall := timed(tr, "run", func() {
		pace = r.newPacer()
		for done := 0; done < sc.stormEpochs; done += sc.stormQueryEvery {
			f0, s0, qt0 := eng.Fired(), len(n.Snapshots()), stateTime+diffTime
			d := timed(tr, "RunFor", func() { n.RunFor(sim.Duration(sc.stormQueryEvery) * period) })
			r.pending = append(r.pending, float64(eng.Pending()))
			s1 := len(n.Snapshots())
			timed(tr, "queries", querySlice)
			slices = append(slices, pace.mark(slice{wall: d + stateTime + diffTime - qt0, ops: eng.Fired() - f0,
				snapLo: s0, snapHi: s1}))
		}
		ticker.Stop()
		// Let the last epoch finish: its lead, the control planes'
		// notification service, the trip to the observer.
		timed(tr, "RunFor", func() { n.RunFor(period) })
	})
	alloc, gcPause := mem.stop()
	events := eng.Fired() - fired0
	// The host time of the run excludes checking the query answers and
	// the reference batches, which are the benchmark's work, not the
	// program's.
	wall -= verifyTime + pace.took
	ws := wall.Seconds()

	tr.begin("verify")
	units := 0
	for _, sw := range ls.Switches {
		units += 2 * len(sw.Ports)
	}
	good, latUS, spreadUS := r.checkSnapshots(n, begun-refused, units)
	r.attempted += int64(begun-warmBegun) + int64(queries)
	if refused > 0 {
		r.failf(int64(refused), "%d of %d snapshots refused (ID window full)", refused, begun)
	}
	if badQueries > 0 {
		r.failf(int64(badQueries), "%d of %d history queries disagree with their source snapshot", badQueries, queries)
	}
	if drops := n.NotifDropsTotal(); drops > 0 {
		r.failf(1, "%d notifications dropped", drops)
	}
	r.setDigest(snapshotDigest(n.Snapshots()))
	r.setFired(events)
	tr.end()

	r.walls = append(r.walls, ws)
	r.add("setup_s", setup.Seconds()*pace.speed())
	r.addSlices(countGood(slices, good), "ops_per_s", "events_per_s", "snapshots_per_s")
	// A slice's 250 queries take 5 ms, too few to time apart: the
	// query rate is sampled per repetition.
	r.add("queries_per_s", float64(queries)/((stateTime+diffTime).Seconds()*pace.speed()))
	r.add("alloc_bytes_per_op", float64(alloc)/float64(events))
	r.add("virt_epoch_latency_us_p50", percentile(latUS, 0.5))
	r.add("virt_epoch_latency_us_p99", percentile(latUS, 0.99))
	r.add("virt_sync_spread_us_p50", percentile(spreadUS, 0.5))

	if r.traced() {
		r.desLayers(n, ins, desRep{wall: wall, newTime: newTime, events: events, gcPause: gcPause,
			schedUS: schedUS, counts: readRegistry(ins.reg).since(reg0)})
		r.add("snapstore.state_query_us", us(stateTime)/float64(sc.stormStates*(sc.stormEpochs/sc.stormQueryEvery)))
		r.add("snapstore.diff_query_us", us(diffTime)/float64(sc.stormDiffs*(sc.stormEpochs/sc.stormQueryEvery)))
	}
}

// stateMatches checks a reconstructed cut against the global snapshot
// the epoch was ingested from, register by register.
func stateMatches(st *snapstore.State, g *observer.GlobalSnapshot) bool {
	if st == nil || g == nil || st.Epoch.ID != g.ID {
		return false
	}
	present := 0
	for i, reg := range st.Regs {
		if !reg.Present {
			continue
		}
		present++
		res, ok := g.Results[st.Units[i]]
		if !ok || res.Value != reg.Value || res.Consistent != reg.Consistent {
			return false
		}
	}
	return present == len(g.Results)
}

// diffMatches checks a register diff against the two source
// snapshots: every reported change is real, and no change is missing.
func diffMatches(diff []snapstore.RegDiff, from, to *observer.GlobalSnapshot) bool {
	if from == nil || to == nil {
		return false
	}
	want := 0
	for u, a := range from.Results {
		if b := to.Results[u]; a.Value != b.Value || a.Consistent != b.Consistent {
			want++
		}
	}
	if len(diff) != want {
		return false
	}
	for _, d := range diff {
		a, b := from.Results[d.Unit], to.Results[d.Unit]
		if d.From.Value != a.Value || d.To.Value != b.Value {
			return false
		}
	}
	return true
}

// sustainedRate is the Fig. 10 measurement on the 64-port star: the
// highest snapshot rate the switch CPU sustains, found by geometric
// bisection. The criteria are experiments.Fig10's - no notification
// dropped, at most one snapshot's worth of notifications left queued -
// but on the deployed ID space (MaxID 256, wraparound), so a rate that
// fills the observer's no-lapping window also fails.
func sustainedRate(r *run) float64 {
	const ports = 64
	b := topology.NewBuilder()
	sw := b.AddSwitch(ports)
	for p := 0; p < ports; p++ {
		b.AttachHost(sw, p, sim.Microsecond)
	}
	topo, err := b.Build()
	if err != nil {
		r.failf(1, "star topology: %v", err)
		return 0
	}
	sustains := func(rateHz float64) bool {
		n, err := emunet.New(emunet.Config{
			Topo: topo, Seed: r.opt.seed,
			MaxID: 256, WrapAround: true, ChannelState: false,
			RetryAfter: -1, ExcludeAfter: -1,
		})
		if err != nil {
			r.failf(1, "star network: %v", err)
			return false
		}
		eng := n.Engine()
		refused := false
		tick := eng.NewTicker(sim.DurationOfSeconds(1/rateHz), func() {
			if _, err := n.ScheduleSnapshot(eng.Now()); err != nil {
				refused = true
			}
		})
		n.RunFor(r.sc.bisectTrial)
		tick.Stop()
		return !refused && n.NotifDropsTotal() == 0 && n.Switch(0).DP.PendingNotifs() <= 2*ports
	}
	lo, hi := 1.0, 50_000.0
	if !sustains(lo) {
		return 0
	}
	for hi/lo > r.sc.bisectTo {
		mid := math.Sqrt(lo * hi)
		if sustains(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// buildTopo builds a repetition's topology inside a span; the traced
// run records what it cost.
func (r *run) buildTopo(build func() (*topology.LeafSpine, error)) (ls *topology.LeafSpine, err error) {
	d := timed(r.tr, "topology.NewLeafSpine", func() { ls, err = build() })
	if r.traced() {
		r.add("topology.build_ms", ms(d))
	}
	return ls, err
}
