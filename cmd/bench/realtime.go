package main

import (
	"math/rand"
	"runtime"
	"sync/atomic"
	"time"

	"speedlight/internal/audit"
	"speedlight/internal/dataplane"
	"speedlight/internal/journal"
	"speedlight/internal/live"
	"speedlight/internal/observer"
	"speedlight/internal/packet"
	"speedlight/internal/sim"
	"speedlight/internal/telemetry"
	"speedlight/internal/topology"
	"speedlight/internal/wire"
)

// maxOutstanding bounds the closed loop: the generator never has more
// data packets in the network than this.
const maxOutstanding = 128

// stallAfter is how long the generator tolerates no delivery and no
// snapshot completion before it writes the outstanding work off as
// failed.
const stallAfter = 5 * time.Second

// rtNet is what the generator needs from a realtime runtime; live and
// wire both provide it.
type rtNet interface {
	Inject(host topology.HostID, pkt *packet.Packet) error
	TakeSnapshot() (packet.SeqID, <-chan *observer.GlobalSnapshot, error)
	Audit() *audit.Report
	Close()
}

type liveNet struct{ *live.Network }

func (n liveNet) TakeSnapshot() (packet.SeqID, <-chan *observer.GlobalSnapshot, error) {
	return n.Network.TakeSnapshot(0)
}
func (n liveNet) Close() { n.Stop() }

// rtConfig is what a repetition passes to either runtime's
// constructor.
type rtConfig struct {
	topo         *topology.Topology
	channelState bool
	onDeliver    func(*packet.Packet, topology.HostID)
	reg          *telemetry.Registry // live only: wire.Config takes none
	jset         *journal.Set
}

// runtimeDef is one realtime runtime: the layer name its metrics
// carry, the constructor its set-up span is named for, and that
// constructor.
type runtimeDef struct {
	name, ctor string
	build      func(rtConfig) (rtNet, error)
}

var (
	liveRuntime = runtimeDef{"live", "live.New+Start", buildLive}
	wireRuntime = runtimeDef{"wire", "wire.Deploy", buildWire}
)

func buildLive(c rtConfig) (rtNet, error) {
	n, err := live.New(live.Config{
		Topo: c.topo, MaxID: 256, WrapAround: true, ChannelState: c.channelState,
		OnDeliver: c.onDeliver, Registry: c.reg, Journal: c.jset,
	})
	if err != nil {
		return nil, err
	}
	n.Start()
	return liveNet{n}, nil
}

func buildWire(c rtConfig) (rtNet, error) {
	return wire.Deploy(wire.Config{
		Topo: c.topo, MaxID: 256, WrapAround: true, ChannelState: c.channelState,
		OnDeliver: c.onDeliver, Journal: c.jset,
	})
}

func testbedTopo() (*topology.LeafSpine, error) {
	return topology.NewLeafSpine(topology.LeafSpineConfig{
		Leaves: 2, Spines: 2, HostsPerLeaf: 3,
		HostLinkLatency:   sim.Microsecond,
		FabricLinkLatency: sim.Microsecond,
	})
}

// flow is one generated packet header: the inputs the seed decides.
type flow struct {
	src, dst topology.HostID
	srcPort  uint16
}

// generator is the one goroutine that loads a realtime runtime: a
// closed loop of at most maxOutstanding data packets, and snapshots
// taken back to back. The free channel is both the loop's token pool
// and its packet free list: a delivery returns the token, so the
// generator blocks exactly when the network is full.
type generator struct {
	r     *run
	net   rtNet
	topo  *topology.Topology
	flows []flow
	next  int
	free  chan *packet.Packet

	delivered atomic.Uint64 // written by the runtime's delivery goroutines

	sent      uint64
	snapsGood int
	snapStart time.Time
	snapDone  <-chan *observer.GlobalSnapshot
	prev      map[dataplane.UnitID]uint64 // last snapshot's values: counters never go back
	prevID    packet.SeqID
	units     int

	wallMS     []float64 // TakeSnapshot call -> assembled snapshot received
	takeUS     []float64 // the TakeSnapshot call itself
	injectTime time.Duration
	injectN    int
	injectAt   time.Time
	waitTime   time.Duration
}

func newGenerator(r *run, topo *topology.Topology, seed int64) *generator {
	g := &generator{r: r, topo: topo, free: make(chan *packet.Packet, maxOutstanding),
		prev: map[dataplane.UnitID]uint64{}}
	rng := rand.New(rand.NewSource(seed))
	hosts := topo.Hosts
	g.flows = make([]flow, 4096)
	for i := range g.flows {
		s := rng.Intn(len(hosts))
		d := rng.Intn(len(hosts) - 1)
		if d >= s {
			d++
		}
		g.flows[i] = flow{src: hosts[s].ID, dst: hosts[d].ID, srcPort: uint16(1000 + rng.Intn(60000))}
	}
	for i := 0; i < maxOutstanding; i++ {
		g.free <- &packet.Packet{}
	}
	for _, sw := range topo.Switches {
		g.units += 2 * len(sw.Ports)
	}
	return g
}

// onDeliver runs on the runtime's goroutines.
func (g *generator) onDeliver(pkt *packet.Packet, _ topology.HostID) {
	g.delivered.Add(1)
	select {
	case g.free <- pkt:
	default: // a duplicate delivery must not block the runtime
	}
}

func (g *generator) inject(pkt *packet.Packet) {
	f := g.flows[g.next%len(g.flows)]
	g.next++
	*pkt = packet.Packet{DstHost: uint32(f.dst), SrcPort: f.srcPort, DstPort: 80, Proto: 6, Size: 1000}
	g.r.attempted++
	g.sent++
	var t0 time.Time
	if g.r.traced() {
		t0 = time.Now()
		if g.injectN == 0 {
			g.injectAt = t0
		}
	}
	if err := g.net.Inject(f.src, pkt); err != nil {
		g.r.failf(1, "inject: %v", err)
	}
	if g.r.traced() {
		g.injectTime += time.Since(t0)
		g.injectN++
	}
}

func (g *generator) takeSnapshot() {
	g.r.attempted++
	g.snapStart = time.Now()
	var err error
	d := timed(g.r.tr, "TakeSnapshot", func() { _, g.snapDone, err = g.net.TakeSnapshot() })
	g.takeUS = append(g.takeUS, us(d))
	if err != nil {
		g.r.failf(1, "snapshot refused: %v", err)
		g.snapDone = nil
	}
}

// onSnapshot checks an assembled snapshot: consistent, nothing
// excluded, a result from every unit, IDs in sequence, and no packet
// counter behind the value the previous snapshot recorded.
func (g *generator) onSnapshot(s *observer.GlobalSnapshot) {
	g.wallMS = append(g.wallMS, ms(time.Since(g.snapStart)))
	g.snapDone = nil
	switch {
	case !s.Consistent:
		g.r.failf(1, "snapshot %d inconsistent", s.ID)
	case len(s.Excluded) > 0:
		g.r.failf(1, "snapshot %d excluded %d device(s)", s.ID, len(s.Excluded))
	case len(s.Results) != g.units:
		g.r.failf(1, "snapshot %d has %d of %d unit results", s.ID, len(s.Results), g.units)
	case s.ID != g.prevID+1:
		g.r.failf(1, "snapshot %d follows %d", s.ID, g.prevID)
	default:
		for u, res := range s.Results {
			if res.Value < g.prev[u] {
				g.r.failf(1, "snapshot %d: %v went back from %d to %d", s.ID, u, g.prev[u], res.Value)
				g.prevID = s.ID
				return
			}
		}
		g.snapsGood++
	}
	g.prevID = s.ID
	for u, res := range s.Results {
		g.prev[u] = res.Value
	}
}

// drive runs the loop for a wall window, or (window 0) until it has
// sent pkts packets and completed snaps snapshots: the fixed-work
// warm-up.
func (g *generator) drive(window time.Duration, pkts uint64, snaps int) {
	var deadline <-chan time.Time
	if window > 0 {
		t := time.NewTimer(window)
		defer t.Stop()
		deadline = t.C
	}
	watchdog := time.NewTicker(time.Second)
	defer watchdog.Stop()
	sent0, good0 := g.sent, len(g.wallMS)
	progress, idle := g.delivered.Load()+uint64(len(g.wallMS)), time.Duration(0)
	for {
		warmSnaps := window == 0 && len(g.wallMS)-good0 >= snaps
		free := g.free
		if window == 0 && g.sent-sent0 >= pkts {
			if warmSnaps {
				return
			}
			free = nil // packet quota met: wait for the snapshots only
		}
		if g.snapDone == nil && !warmSnaps {
			g.takeSnapshot()
		}
		var t0 time.Time
		if g.r.traced() {
			t0 = time.Now()
		}
		select {
		case pkt := <-free:
			if g.r.traced() {
				g.waitTime += time.Since(t0)
			}
			g.inject(pkt)
		case s := <-g.snapDone:
			if g.r.traced() {
				g.waitTime += time.Since(t0)
			}
			g.onSnapshot(s)
		case <-deadline:
			return
		case <-watchdog.C:
			if now := g.delivered.Load() + uint64(len(g.wallMS)); now != progress {
				progress, idle = now, 0
				continue
			}
			if idle += time.Second; idle >= stallAfter {
				g.writeOff()
				idle = 0
			}
		}
	}
}

// writeOff counts everything outstanding as failed and restarts the
// loop: a lost packet must not hang the benchmark.
func (g *generator) writeOff() {
	if lost := maxOutstanding - len(g.free); lost > 0 {
		g.r.failf(int64(lost), "%d packets undelivered after %v", lost, stallAfter)
		for i := 0; i < lost; i++ {
			g.free <- &packet.Packet{}
		}
	}
	if g.snapDone != nil {
		g.r.failf(1, "snapshot timed out after %v", stallAfter)
		g.snapDone = nil
	}
}

// quiesce lets the network drain: the outstanding snapshot completes
// and every token comes home.
func (g *generator) quiesce() {
	limit := time.After(stallAfter)
	for g.snapDone != nil || len(g.free) < maxOutstanding {
		select {
		case s := <-g.snapDone:
			g.onSnapshot(s)
		case <-limit:
			g.writeOff()
			return
		case <-time.After(200 * time.Microsecond):
		}
	}
}

// checkConservation takes one snapshot of the drained network. With
// nothing in flight the cut is exact: the host-facing ingress units
// have counted every packet sent, the host-facing egress units every
// packet delivered.
func (g *generator) checkConservation() {
	g.takeSnapshot()
	if g.snapDone == nil {
		return
	}
	var s *observer.GlobalSnapshot
	select {
	case s = <-g.snapDone:
	case <-time.After(stallAfter):
		g.r.failf(1, "final snapshot timed out")
		g.snapDone = nil
		return
	}
	g.onSnapshot(s)
	var in, out uint64
	for _, h := range g.topo.Hosts {
		in += s.Results[dataplane.UnitID{Node: h.Node, Port: h.Port, Dir: dataplane.Ingress}].Value
		out += s.Results[dataplane.UnitID{Node: h.Node, Port: h.Port, Dir: dataplane.Egress}].Value
	}
	if in != g.sent || out != g.delivered.Load() {
		g.r.failf(1, "drained snapshot counts %d in / %d out, generator sent %d / saw %d delivered",
			in, out, g.sent, g.delivered.Load())
	}
}

// rtRep is one repetition of live_chan or wire_udp: a fresh runtime on
// the 2x2x3 testbed, the fixed-work warm-up, one wall window of load.
func rtRep(r *run, rt runtimeDef) {
	name := rt.name
	sc, tr := r.sc, r.tr
	ins := r.instruments(tailRing)
	runtime.GC()

	var (
		ls        *topology.LeafSpine
		net       rtNet
		err       error
		g         *generator
		buildTime time.Duration
	)
	setup := timed(tr, "setup", func() {
		ls, err = r.buildTopo(testbedTopo)
		if err != nil {
			return
		}
		g = newGenerator(r, ls.Topology, r.opt.seed)
		buildTime = timed(tr, rt.ctor, func() {
			net, err = rt.build(rtConfig{topo: ls.Topology, onDeliver: g.onDeliver, reg: ins.reg, jset: ins.jset})
		})
		if err != nil {
			return
		}
		g.net = net
		timed(tr, "warmup", func() { g.drive(0, uint64(sc.rtWarmPkts), sc.rtWarmSnaps) })
	})
	if err != nil {
		r.failf(1, "set-up: %v", err)
		return
	}
	defer net.Close()

	deliv0, lat0 := g.delivered.Load(), len(g.wallMS)
	g.injectTime, g.injectN, g.waitTime, g.takeUS = 0, 0, 0, nil
	reg0 := readRegistry(ins.reg)
	mem := startMem()
	// The window is driven as rtSlices equal wall slices; the loop's
	// state (tokens, the snapshot in flight) carries across them.
	slices := make([]slice, 0, sc.rtSlices)
	var pace *pacer
	wall := timed(tr, "run", func() {
		pace = r.newPacer()
		for i := 0; i < sc.rtSlices; i++ {
			t0, d0, s0 := time.Now(), g.delivered.Load(), g.snapsGood
			g.drive(sc.rtWindow/time.Duration(sc.rtSlices), 0, 0)
			d := g.delivered.Load() - d0
			slices = append(slices, pace.mark(slice{wall: time.Since(t0), ops: d, packets: d, snaps: uint64(g.snapsGood - s0)}))
		}
	})
	alloc, gcPause := mem.stop()
	delivered := g.delivered.Load() - deliv0
	counts := readRegistry(ins.reg).since(reg0)
	tr.aggregate("Inject", g.injectAt, g.injectTime, g.injectN)

	timed(tr, "verify", func() {
		g.quiesce()
		g.checkConservation()
	})
	lat := g.wallMS[lat0:]
	if len(lat) == 0 || delivered == 0 {
		r.failf(1, "window completed %d snapshots and %d packets", len(lat), delivered)
		return
	}

	ws := (wall - pace.took).Seconds() // the reference batches are no part of the repetition
	r.walls = append(r.walls, ws)
	r.add("setup_s", setup.Seconds()*pace.speed())
	r.addSlices(slices, "ops_per_s", "packets_per_s", "snapshots_per_s")
	r.add("snapshot_wall_ms_p50", percentile(lat, 0.5))
	r.add("alloc_bytes_per_op", float64(alloc)/float64(delivered))

	if !r.traced() {
		return
	}
	r.add(name+".snapshot_wall_ms_p95", percentile(lat, 0.95))
	r.add(name+".inject_ns", float64(g.injectTime.Nanoseconds())/float64(g.injectN))
	r.add(name+".take_snapshot_us", median(g.takeUS))
	r.add("process.generator_wait_share", g.waitTime.Seconds()/ws)
	r.add("process.gc_pause_ms", ms(gcPause))
	if name == "live" {
		r.add("live.new_ms", ms(buildTime))
		r.addCounts(counts, regNames)
		r.addCounts(counts, map[string]string{
			"live.switch_events":    "speedlight_live_events_total",
			"live.inbox_drops":      "speedlight_live_inbox_drops_total",
			"live.inbox_high_water": "speedlight_live_inbox_high_water",
		})
	} else {
		r.add("wire.deploy_ms", ms(buildTime))
		r.add("wire.delivered_share", float64(g.delivered.Load())/float64(g.sent))
	}
	// The journal is read after Close: the rings are quiet then.
	net.Close()
	events := r.journalLayers(ins.jset, net.Audit)
	if name == "live" {
		r.add("observer.first_try_share", firstTryShare(events))
	}
}

// csPhase is the traced run's channel-state phase: the same generator
// against a fresh runtime with channel state on, long enough to name
// the snapshot latency of the two runtimes' marker policies (live
// floods markers only on the retry timer, wire at every initiation).
// Neither its snapshots nor its packets are part of the tally: a
// channel-state snapshot may legitimately finalize inconsistent under
// load, and wire's marker flood can overflow a loopback socket buffer
// and take data packets with it. For the same reason the phase does
// not wait for the loop to drain; Close ends it.
func csPhase(r *run, rt runtimeDef) {
	ls, err := testbedTopo()
	if err != nil {
		r.failf(1, "cs phase: %v", err)
		return
	}
	quiet := newRun(r.opt, nil) // its own tally, discarded
	g := newGenerator(quiet, ls.Topology, r.opt.seed)
	net, err := rt.build(rtConfig{topo: ls.Topology, channelState: true, onDeliver: g.onDeliver})
	if err != nil {
		r.failf(1, "cs phase: %v", err)
		return
	}
	defer net.Close()
	g.net = net
	timed(r.tr, "cs_phase", func() { g.drive(r.sc.rtCSPhase, 0, 0) })
	if len(g.wallMS) == 0 {
		r.failf(1, "cs phase completed no snapshot in %v", r.sc.rtCSPhase)
		return
	}
	r.add(rt.name+".cs_snapshot_wall_ms_p50", percentile(g.wallMS, 0.5))
}
