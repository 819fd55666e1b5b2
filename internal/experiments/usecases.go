package experiments

import (
	"fmt"
	"slices"

	"speedlight/internal/core"
	"speedlight/internal/counters"
	"speedlight/internal/dataplane"
	"speedlight/internal/emunet"
	"speedlight/internal/invariant"
	"speedlight/internal/packet"
	"speedlight/internal/polling"
	"speedlight/internal/sim"
	"speedlight/internal/snapstore"
	"speedlight/internal/stats"
	"speedlight/internal/topology"
	"speedlight/internal/workload"
)

// UseCases measures the paper's use-case claims that its evaluation
// does not plot: loop detection (Section 10, with Section 2.2's
// impossible states), microbursts (Section 2.1) and provisioning
// (Section 2.2). Load balance (Section 8.3) and correlation (Section
// 8.4) are Fig12 and Fig13.
func UseCases(o Options) *Table {
	return useCasesTable(loopDetect(o), microburst(o), provisioning(o))
}

// loopResult is what each method saw of trials route migrations.
type loopResult struct {
	trials        int
	observed      int // trials whose snapshot and poll both completed
	snap, poll    versionPairs
	cuts, flagged uint64 // fib-order invariant evaluations and violations
}

// versionPairs counts one method's observed (leaf 0, leaf 1) FIB-version
// pairs: the impossible (v1, v2) and the real transient (v2, v1).
type versionPairs struct{ impossible, transient int }

func (v *versionPairs) add(a, b uint64) {
	switch {
	case a == 1 && b == 2:
		v.impossible++ // leaf 1 can never be ahead of leaf 0
	case a == 2 && b == 1:
		v.transient++ // the real transient window
	}
}

// loopDetect snapshots forwarding state (Section 10). In each trial two
// leaves migrate a route from FIB version 1 to 2, leaf 0 first and leaf
// 1 200 µs later, so the network passes through (v2, v1) but never
// through (v1, v2). Each leaf's version is a register its port-0
// ingress unit snapshots. One synchronized snapshot and one polling
// sweep observe each migration from the same per-trial phase, and a
// fib-order invariant checks every sealed cut. Trial i runs seed
// o.Seed+i.
func loopDetect(o Options) loopResult {
	r := loopResult{trials: scale(o, 60, 20)}
	for i := 0; i < r.trials; i++ {
		r.trial(o.Seed+int64(i), o.Shards)
	}
	return r
}

// trial runs one migration, observes it once with each method, and adds
// what they saw to r.
func (r *loopResult) trial(seed int64, shards int) {
	store := snapstore.New(snapstore.Config{Retention: 128, CheckpointEvery: 16})
	inv := invariant.New(invariant.Config{})
	net, ls := testbedNet(seed, shards, 25e9, 25e9, func(c *emunet.Config) {
		c.Metrics = func(n *emunet.Network, id dataplane.UnitID) core.Metric {
			if id.Dir == dataplane.Ingress && id.Port == 0 {
				return n.Gauge(id)
			}
			return nil
		}
		c.Snapstore, c.Invariants = store, inv
	})
	leaf0 := dataplane.UnitID{Node: ls.Leaves[0], Port: 0, Dir: dataplane.Ingress}
	leaf1 := dataplane.UnitID{Node: ls.Leaves[1], Port: 0, Dir: dataplane.Ingress}
	// Leaf 1 may never run a newer FIB than leaf 0.
	inv.Register(invariant.Order("fib-migration-order", leaf0, leaf1))
	net.Gauge(leaf0).Set(1)
	net.Gauge(leaf1).Set(1)

	// Background traffic keeps the snapshot protocol advancing.
	bg := &workload.Uniform{Net: net, Hosts: ls.HostIDs(), Interval: 2 * sim.Microsecond}
	bg.Start()
	net.RunFor(sim.Millisecond)

	eng := net.Engine()
	eng.After(500*sim.Microsecond, func() { net.Gauge(leaf0).Set(2) })
	eng.After(700*sim.Microsecond, func() { net.Gauge(leaf1).Set(2) })

	// The per-trial phase sweeps the migration window. The snapshot
	// fires 300 µs after it; the poll sweep, which reads every unit as a
	// real polling framework would, starts at it and spreads over
	// milliseconds.
	phase := sim.Duration(100+(seed*71)%500) * sim.Microsecond
	var snapID packet.SeqID
	eng.After(phase, func() {
		snapID, _ = net.ScheduleSnapshot(eng.Now().Add(300 * sim.Microsecond))
	})
	var pollA, pollB uint64
	polled := false
	poller := polling.New(net, polling.Config{})
	eng.After(phase, func() {
		poller.PollAll(net.Units(), func(s []polling.Sample) {
			for _, smp := range s {
				switch smp.Unit {
				case leaf0:
					pollA = smp.Value
				case leaf1:
					pollB = smp.Value
				}
			}
			polled = true
		})
	})
	// At seeds 1-60 both observations complete 3-6 ms into this run. It
	// runs twice that, and observed counts the trials where both did.
	net.RunFor(12 * sim.Millisecond)

	snapped := false
	for _, g := range net.Completed([]packet.SeqID{snapID}) {
		a, okA := g.Value(leaf0)
		b, okB := g.Value(leaf1)
		if snapped = okA && okB; snapped {
			r.snap.add(a, b)
		}
	}
	if polled {
		r.poll.add(pollA, pollB)
	}
	if snapped && polled {
		r.observed++
	}
	st := inv.Status()[0]
	r.cuts += st.Evals
	r.flagged += st.Violations
}

// burstResult counts the snapshots, of rounds, that show a microburst
// with each metric.
type burstResult struct{ rounds, gaugeHits, highWaterHits int }

// microburst pairs snapshots with the right register (Section 2.1,
// after Zhang et al.'s O(10 µs) bursts): a snapshot of an instantaneous
// queue-depth gauge almost always misses a microsecond-scale burst,
// while a high-water register, as implementable in a data plane, catches
// it. One ~50 µs burst (five hosts converging on one) fires in every
// 2 ms snapshot interval; both metrics are snapshotted at the same
// consistent instants.
func microburst(o Options) burstResult {
	rounds := scale(o, 50, 20)
	return burstResult{rounds, burstHits(o, rounds, false), burstHits(o, rounds, true)}
}

// burstHits runs the campaign with host 0's egress queue depth read
// through the gauge or the high-water register, and counts the
// snapshots in which it shows the burst.
func burstHits(o Options, rounds int, highWater bool) int {
	const interval = 2 * sim.Millisecond
	victim := dataplane.UnitID{Node: 0, Port: 0, Dir: dataplane.Egress}
	hw := &counters.HighWater{}
	// 2 Gb/s links: slow enough for the burst to queue.
	net, _ := testbedNet(o.Seed+12, o.Shards, 2e9, 2e9, func(c *emunet.Config) {
		c.Metrics = func(n *emunet.Network, id dataplane.UnitID) core.Metric {
			switch {
			case id != victim:
				return nil
			case highWater:
				return hw
			}
			return n.Gauge(id)
		}
	})
	eng := net.Engine()
	// The emulation drives the gauge; the high-water register mirrors
	// the queue's occupancy every microsecond.
	if highWater {
		eng.NewTicker(sim.Microsecond, func() { hw.Set(uint64(net.Switch(0).QueueLen(0))) })
	}
	// One microburst per interval, at a phase the snapshots do not know:
	// hosts 1..5 each fire 8 packets at host 0 at once.
	eng.NewTicker(interval, func() {
		eng.After(313*sim.Microsecond, func() {
			for src := topology.HostID(1); src <= 5; src++ {
				for p := 0; p < 8; p++ {
					net.InjectFromHost(src, &packet.Packet{
						DstHost: 0, SrcPort: uint16(100 + p), DstPort: 80,
						Proto: 6, Size: 1500,
					})
				}
			}
		})
	})
	net.RunFor(sim.Millisecond)

	hits := 0
	for i := 0; i < rounds; i++ {
		id, err := net.ScheduleSnapshot(eng.Now().Add(100 * sim.Microsecond))
		if err != nil {
			net.RunFor(interval)
			continue
		}
		if highWater {
			// The control plane clears the register right after the data
			// plane records it (read-and-clear), arming it for the next
			// epoch.
			eng.After(400*sim.Microsecond, func() { hw.Reset() })
		}
		// One interval: the snapshot completes and exactly one new
		// microburst fires.
		net.RunFor(interval)
		for _, g := range net.Completed([]packet.SeqID{id}) {
			if v, ok := g.Value(victim); ok && v >= 4 {
				hits++
			}
		}
	}
	return hits
}

// provArm is one provisioning scenario's measurements.
type provArm struct {
	scenario         string
	util             float64    // long-term average uplink utilization
	loaded           *stats.CDF // uplink queues loaded in the same snapshot
	cuts, violations uint64     // headroom invariant evaluations and violations
}

// provisioning answers Section 2.2's capacity-planning question: two
// workloads with the same average utilization can need different
// provisioning, and only contemporaneous measurements tell them apart.
// Every host bursts cross-fabric once a millisecond, all at the same
// instant (synchronized) or spread over the period (staggered). The
// averages agree; snapshots of the uplinks' queue depths show that the
// synchronized bursts load several uplinks in the same instant, and a
// headroom invariant (at most one uplink queue deeper than 1 in a cut)
// checks every sealed cut.
func provisioning(o Options) []provArm {
	rounds := scale(o, 100, 40)
	return []provArm{provisionRun(o, rounds, "synchronized"), provisionRun(o, rounds, "staggered")}
}

// provisionRun takes rounds snapshots of one scenario.
func provisionRun(o Options, rounds int, scenario string) provArm {
	const (
		rateBps      = 2e9 // slow enough that bursts queue
		burstPeriod  = sim.Millisecond
		burstPackets = 40
		packetSize   = 1500
		// Hosts send at line rate: one packet per serialization time.
		pktGap = 6 * sim.Microsecond
	)
	store := snapstore.New(snapstore.Config{Retention: 256, CheckpointEvery: 16})
	inv := invariant.New(invariant.Config{})
	net, ls := testbedNet(o.Seed+2, o.Shards, rateBps, rateBps, func(c *emunet.Config) {
		c.Metrics = func(n *emunet.Network, id dataplane.UnitID) core.Metric {
			if id.Dir == dataplane.Egress {
				return n.Gauge(id)
			}
			return nil
		}
		c.Snapstore, c.Invariants = store, inv
	})
	uplinks := slices.Concat(emunet.UplinkUnits(ls)...)
	inv.Register(invariant.Bound("uplink-headroom", uplinks, 1, 1))

	eng := net.Engine()
	var pktBytes uint64
	for i, h := range ls.Hosts {
		offset := sim.Duration(0)
		if scenario == "staggered" {
			offset = sim.Duration(i) * burstPeriod / sim.Duration(len(ls.Hosts))
		}
		dst := ls.Hosts[(i+3)%len(ls.Hosts)].ID // cross-leaf partner
		eng.After(offset, func() {
			eng.NewTicker(burstPeriod, func() {
				for p := 0; p < burstPackets; p++ {
					pktBytes += packetSize
					eng.After(sim.Duration(p)*pktGap, func() {
						net.InjectFromHost(h.ID, &packet.Packet{
							DstHost: uint32(dst),
							SrcPort: uint16(2000 + i*64 + p%8),
							DstPort: 80, Proto: 6, Size: packetSize,
						})
					})
				}
			})
		})
	}
	net.RunFor(3 * sim.Millisecond)

	// The stride sweeps the snapshots across the burst cycle's phases.
	const stride = burstPeriod + 137*sim.Microsecond
	net.SnapshotSeries(rounds, stride, 0, func(now sim.Time) (packet.SeqID, error) {
		return net.ScheduleSnapshot(now.Add(100 * sim.Microsecond))
	})
	// The capacity window ends before the drain, and so do the bytes.
	elapsed, sent := eng.Now(), pktBytes
	net.RunFor(50 * sim.Millisecond)

	st := inv.Status()[0]
	return provArm{
		scenario:   scenario,
		util:       float64(sent*8) / (rateBps * elapsed.Micros() / 1e6 * float64(len(uplinks))),
		loaded:     concurrentLoad(net.Snapshots(), uplinks, 2),
		cuts:       st.Evals,
		violations: st.Violations,
	}
}

// useCasesTable renders the three claims' measurements.
func useCasesTable(l loopResult, b burstResult, p []provArm) *Table {
	t := &Table{
		Title:  "Use cases: loop detection (Sections 10, 2.2), microbursts (2.1), provisioning (2.2)",
		Header: []string{"Use case", "Arm", "Measure", "Value"},
	}
	row := func(cells ...string) { t.Rows = append(t.Rows, cells) }
	of := func(n, total int) string { return fmt.Sprintf("%d of %d", n, total) }
	row("loop detection", "snapshots", "impossible (v1,v2) states", of(l.snap.impossible, l.trials))
	row("loop detection", "snapshots", "real transient (v2,v1) caught", of(l.snap.transient, l.trials))
	row("loop detection", "polling", "impossible (v1,v2) states", of(l.poll.impossible, l.trials))
	row("loop detection", "polling", "real transient (v2,v1) caught", of(l.poll.transient, l.trials))
	row("loop detection", "both", "migrations observed by both methods", of(l.observed, l.trials))
	row("loop detection", "fib-order invariant", "loop windows flagged", fmt.Sprintf("%d of %d cuts", l.flagged, l.cuts))
	row("microburst", "instantaneous gauge", "snapshots showing the burst", of(b.gaugeHits, b.rounds))
	row("microburst", "high-water register", "snapshots showing the burst", of(b.highWaterHits, b.rounds))
	for _, a := range p {
		row("provisioning", a.scenario, "average uplink utilization", fmt.Sprintf("%.1f%%", a.util*100))
		row("provisioning", a.scenario, "uplinks loaded at once, p50 / p90",
			fmt.Sprintf("%.0f / %.0f of 4", a.loaded.Median(), a.loaded.Quantile(0.9)))
		row("provisioning", a.scenario, "headroom violations", fmt.Sprintf("%d of %d cuts", a.violations, a.cuts))
	}
	t.Notes = []string{
		"a consistent snapshot can show the real transient window but never an impossible ordering; polling cannot tell the two apart",
		"the snapshot primitive is metric-agnostic: paired with a high-water register it catches bursts shorter than any snapshot interval",
		"equal averages, opposite provisioning: synchronized peaks collide (provision for the sum of bursts), staggered ones never do",
	}
	return t
}
