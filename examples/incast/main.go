// Incast demonstrates the paper's Section 8.4 use case — detecting
// synchronized application traffic — on a memcached-style multi-get
// workload. Every multi-get makes all servers answer the client at
// once: a classic incast pattern that is invisible to averaged or
// asynchronous measurements.
//
// The program snapshots queue depth at every egress port in repeated
// synchronized snapshots, computes pairwise Spearman correlations of
// the per-port series, and shows that the ports on the response path
// light up together at snapshot instants — evidence of synchronized
// traffic — while asynchronous polling washes much of the structure
// out.
//
//	go run ./examples/incast
package main

import (
	"fmt"
	"log"

	"speedlight/internal/analysis"
	"speedlight/internal/core"
	"speedlight/internal/dataplane"
	"speedlight/internal/emunet"
	"speedlight/internal/packet"
	"speedlight/internal/polling"
	"speedlight/internal/sim"
	"speedlight/internal/stats"
	"speedlight/internal/topology"
	"speedlight/internal/workload"
)

func main() {
	ls, err := topology.NewLeafSpine(topology.LeafSpineConfig{
		Leaves: 2, Spines: 2, HostsPerLeaf: 3,
		HostLinkLatency:   sim.Microsecond,
		FabricLinkLatency: sim.Microsecond,
	})
	if err != nil {
		log.Fatal(err)
	}
	net, err := emunet.New(emunet.Config{
		Topo:  ls.Topology,
		Seed:  11,
		MaxID: 256, WrapAround: true,
		// Queue depth gauges on every egress unit: the incast signature
		// is a burst of simultaneous queue buildup.
		Metrics: func(n *emunet.Network, id dataplane.UnitID) core.Metric {
			if id.Dir == dataplane.Egress {
				return n.Gauge(id)
			}
			return nil // default packet counter
		},
		// Slow the links so the incast responses actually queue: the
		// signature the snapshots look for is simultaneous buildup.
		LinkRateBps: 5e8,
	})
	if err != nil {
		log.Fatal(err)
	}

	hosts := ls.HostIDs()
	// Host 0 is the memcache client; everyone else serves. Responses
	// from 5 servers converge on host 0's access link: incast.
	mc := &workload.Memcache{
		Net:             net,
		Clients:         hosts[:1],
		Servers:         hosts[1:],
		RequestInterval: 200 * sim.Microsecond,
		WaveSpread:      5 * sim.Microsecond, // strict waves: all keys at once
		ResponseSize:    1500,                // large values: the responses collide
	}
	mc.Start()
	defer mc.Stop()
	net.RunFor(2 * sim.Millisecond)

	// Series per egress port, sampled by snapshots and by polling.
	var units []dataplane.UnitID
	for _, id := range net.Units() {
		if id.Dir == dataplane.Egress {
			units = append(units, id)
		}
	}
	idx := map[dataplane.UnitID]int{}
	for i, u := range units {
		idx[u] = i
	}
	pollSeries := make([][]float64, len(units))
	poller := polling.New(net, polling.Config{})

	const rounds = 120
	net.SnapshotSeries(rounds, 237*sim.Microsecond, 50*sim.Millisecond, func(now sim.Time) (packet.SeqID, error) {
		id, err := net.ScheduleSnapshot(now.Add(100 * sim.Microsecond))
		poller.PollAll(units, func(s []polling.Sample) {
			for _, smp := range s {
				pollSeries[idx[smp.Unit]] = append(pollSeries[idx[smp.Unit]], float64(smp.Value))
			}
		})
		return id, err
	})

	snapSeries := analysis.UnitSeries(net.Snapshots(), units)
	equalize(pollSeries)

	report("snapshots", snapSeries, units)
	report("polling  ", pollSeries, units)
	fmt.Println("\nmore significant correlations = more of the synchronized structure")
	fmt.Println("recovered; the strongest pairs lie on the multi-get response path.")
}

func report(method string, series [][]float64, units []dataplane.UnitID) {
	m, err := stats.NewCorrMatrix(series)
	if err != nil {
		log.Fatal(err)
	}
	sig := m.SignificantPairs(0.1)
	best := stats.CorrResult{}
	for _, r := range sig {
		if absf(r.Rho) > absf(best.Rho) {
			best = r
		}
	}
	fmt.Printf("%s: %2d significant port correlations", method, len(sig))
	if len(sig) > 0 {
		fmt.Printf("; strongest %v <-> %v (rho %+.2f)", units[best.I], units[best.J], best.Rho)
	}
	fmt.Println()
}

func absf(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func equalize(series [][]float64) {
	min := -1
	for _, s := range series {
		if min < 0 || len(s) < min {
			min = len(s)
		}
	}
	for i := range series {
		series[i] = series[i][:min]
	}
}
