// Provisioning demonstrates the paper's Section 2.2 capacity-planning
// question: two workloads with IDENTICAL average utilization can need
// completely different provisioning, and only contemporaneous
// measurements can tell them apart.
//
// Scenario A: every host bursts at the same instant (synchronized
// load). Scenario B: the same bursts, staggered so they never overlap.
// Long-term averages — all that asynchronous measurement can offer —
// are the same for both. Synchronized snapshots of queue depth reveal
// the difference immediately: in A many queues are loaded in the same
// instant (the network needs headroom for coinciding peaks), in B at
// most one is (it does not).
//
//	go run ./examples/provisioning
package main

import (
	"fmt"
	"log"

	"speedlight/internal/analysis"
	"speedlight/internal/core"
	"speedlight/internal/dataplane"
	"speedlight/internal/emunet"
	"speedlight/internal/invariant"
	"speedlight/internal/packet"
	"speedlight/internal/sim"
	"speedlight/internal/snapstore"
	"speedlight/internal/stats"
	"speedlight/internal/topology"
)

const (
	burstPeriod  = sim.Millisecond
	burstPackets = 40
	packetSize   = 1500
	rounds       = 100
)

func main() {
	for _, scenario := range []string{"synchronized", "staggered"} {
		loaded, avgUtil, evals, viols := run(scenario)
		fmt.Printf("%-13s bursts: avg utilization %4.1f%% (averages cannot tell these apart)\n",
			scenario, avgUtil*100)
		fmt.Printf("%-13s         concurrently-loaded uplink queues per snapshot: median %.0f, p90 %.0f of 4\n",
			"", loaded.Median(), loaded.Quantile(0.9))
		fmt.Printf("%-13s         streaming headroom invariant: %d cuts checked, %d headroom violations\n",
			"", evals, viols)
	}
	fmt.Println("\nsynchronized peaks collide -> provision for the sum of bursts;")
	fmt.Println("staggered peaks never do   -> the average is the whole story.")
}

// run executes one scenario and returns the distribution of
// concurrently loaded uplink queues per snapshot, the long-term
// average utilization of the uplinks, and the streaming headroom
// invariant's evaluation and violation totals.
func run(scenario string) (*stats.CDF, float64, uint64, uint64) {
	ls, err := topology.NewLeafSpine(topology.LeafSpineConfig{
		Leaves: 2, Spines: 2, HostsPerLeaf: 3,
		HostLinkLatency:   sim.Microsecond,
		FabricLinkLatency: sim.Microsecond,
	})
	if err != nil {
		log.Fatal(err)
	}
	// The uplink egress units whose queue depths the snapshots capture.
	var unitList []dataplane.UnitID
	for _, g := range emunet.UplinkUnits(ls) {
		unitList = append(unitList, g...)
	}

	// Every sealed epoch streams through a provisioning-headroom
	// invariant: at most one uplink queue may be loaded (depth > 1) in
	// the same consistent cut. The synchronized scenario trips it on
	// nearly every burst; the staggered one never does — the exact
	// distinction long-term averages erase.
	store := snapstore.New(snapstore.Config{Retention: 256, CheckpointEvery: 16})
	inv := invariant.New(invariant.Config{})
	inv.Register(invariant.Bound("uplink-headroom", unitList, 1, 1))

	net, err := emunet.New(emunet.Config{
		Topo:  ls.Topology,
		Seed:  3,
		MaxID: 256, WrapAround: true,
		Metrics: func(n *emunet.Network, id dataplane.UnitID) core.Metric {
			if id.Dir == dataplane.Egress {
				return n.Gauge(id)
			}
			return nil
		},
		LinkRateBps: 2e9, // slow enough that bursts queue
		Snapstore:   store,
		Invariants:  inv,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Every host bursts cross-fabric once per period; the scenario
	// decides whether the bursts coincide.
	hosts := ls.Hosts
	eng := net.Engine()
	// Hosts transmit at their line rate: one packet every serialization
	// time, so a burst occupies the wire for burstPackets x 6 µs.
	const pktGap = 6 * sim.Microsecond
	var pktBytes uint64
	for i, h := range hosts {
		h := h
		offset := sim.Duration(0)
		if scenario == "staggered" {
			offset = sim.Duration(i) * burstPeriod / sim.Duration(len(hosts))
		}
		dst := hosts[(i+3)%len(hosts)].ID // cross-leaf partner
		i := i
		eng.After(offset, func() {
			eng.NewTicker(burstPeriod, func() {
				for p := 0; p < burstPackets; p++ {
					p := p
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

	// Snapshot queue depth at random phases of the burst cycle.
	const stride = burstPeriod + 137*sim.Microsecond // sweeps the phase
	net.SnapshotSeries(rounds, stride, 0, func(now sim.Time) (packet.SeqID, error) {
		return net.ScheduleSnapshot(now.Add(100 * sim.Microsecond))
	})
	elapsed := eng.Now() // the measured window ends before the drain
	net.RunFor(50 * sim.Millisecond)

	loaded := analysis.ConcurrentLoad(net.Snapshots(), unitList, 2)

	// Long-term average uplink utilization: offered cross-fabric bytes
	// over capacity — identical across scenarios by construction.
	capacityBits := 2e9 * elapsed.Micros() / 1e6 * 4 // 4 uplinks
	avgUtil := float64(pktBytes*8) / capacityBits

	var evals, viols uint64
	for _, s := range inv.Status() {
		evals += s.Evals
		viols += s.Violations
	}
	return loaded, avgUtil, evals, viols
}
