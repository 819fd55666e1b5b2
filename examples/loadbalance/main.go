// Loadbalance answers the paper's opening question — "is my load
// balancing protocol balancing the load?" — the way Section 8.3 does:
// it runs a Hadoop-style shuffle over the fabric twice, once with ECMP
// and once with flowlet switching, snapshots the EWMA of packet
// interarrival time on every uplink, and compares the standard
// deviation across each leaf's uplinks. The same analysis is repeated
// with traditional asynchronous counter polling, to show why
// unsynchronized measurements cannot answer the question.
//
//	go run ./examples/loadbalance
package main

import (
	"fmt"
	"log"

	"speedlight/internal/dataplane"
	"speedlight/internal/emunet"
	"speedlight/internal/invariant"
	"speedlight/internal/packet"
	"speedlight/internal/polling"
	"speedlight/internal/routing"
	"speedlight/internal/sim"
	"speedlight/internal/snapstore"
	"speedlight/internal/stats"
	"speedlight/internal/topology"
	"speedlight/internal/workload"
)

func main() {
	for _, balancer := range []string{"ecmp", "flowlet"} {
		snap, poll, skewEvals, skewViols := measure(balancer)
		fmt.Printf("%-8s  snapshots: median stddev %6.2fµs  p90 %6.2fµs   (n=%d)\n",
			balancer, snap.Median(), snap.Quantile(0.9), snap.N())
		fmt.Printf("%-8s  polling:   median stddev %6.2fµs  p90 %6.2fµs   (n=%d)\n",
			balancer, poll.Median(), poll.Quantile(0.9), poll.N())
		fmt.Printf("%-8s  streaming uplink-skew invariant: %d cuts checked, %d skew violations\n",
			balancer, skewEvals, skewViols)
	}
	fmt.Println("\nlower stddev = better balance; snapshots measure it at single instants,")
	fmt.Println("polling smears each reading across milliseconds of unrelated instants.")
}

// measure runs the shuffle under one balancer and returns snapshot- and
// polling-based imbalance distributions, plus the streaming skew
// invariant's evaluation and violation totals.
func measure(balancer string) (snapCDF, pollCDF *stats.CDF, skewEvals, skewViols uint64) {
	ls, err := topology.NewLeafSpine(topology.LeafSpineConfig{
		Leaves: 2, Spines: 2, HostsPerLeaf: 3,
		HostLinkLatency:   sim.Microsecond,
		FabricLinkLatency: sim.Microsecond,
	})
	if err != nil {
		log.Fatal(err)
	}

	// The uplink egress units of each leaf.
	groups := emunet.UplinkUnits(ls)
	var flat []dataplane.UnitID
	for _, g := range groups {
		flat = append(flat, g...)
	}

	// Every sealed epoch also streams through a per-leaf skew invariant:
	// the stddev of a leaf's uplink EWMAs must stay under a quarter of
	// the group mean. The same question the offline CDFs answer below,
	// asked of every single cut as it seals — ECMP trips it constantly,
	// flowlet switching never does.
	store := snapstore.New(snapstore.Config{Retention: 256, CheckpointEvery: 16})
	inv := invariant.New(invariant.Config{})
	for i, g := range groups {
		inv.Register(invariant.Skew(fmt.Sprintf("leaf%d-uplink-skew", i), g, 0.25))
	}

	cfg := emunet.Config{
		Topo:  ls.Topology,
		Seed:  7,
		MaxID: 256, WrapAround: true,
		Metrics:    emunet.EWMAMetrics,
		Snapstore:  store,
		Invariants: inv,
	}
	if balancer == "flowlet" {
		cfg.NewBalancer = routing.PaperFlowlet
	}
	net, err := emunet.New(cfg)
	if err != nil {
		log.Fatal(err)
	}

	shuffle, err := workload.ByName("hadoop", net)
	if err != nil {
		log.Fatal(err)
	}
	shuffle.Start()
	defer shuffle.Stop()
	net.RunFor(5 * sim.Millisecond)

	poller := polling.New(net, polling.Config{})
	var snapStd, pollStd []float64
	const rounds = 100
	ids := net.SnapshotSeries(rounds, sim.Millisecond, 50*sim.Millisecond, func(now sim.Time) (packet.SeqID, error) {
		id, err := net.ScheduleSnapshot(now.Add(200 * sim.Microsecond))
		poller.PollAll(flat, func(s []polling.Sample) {
			byUnit := map[dataplane.UnitID]float64{}
			for _, smp := range s {
				byUnit[smp.Unit] = float64(smp.Value) / 1000
			}
			pollStd = append(pollStd, groupStddev(groups, byUnit)...)
		})
		return id, err
	})

	for _, g := range net.Completed(ids) {
		byUnit := map[dataplane.UnitID]float64{}
		for _, u := range flat {
			if v, ok := g.Value(u); ok {
				byUnit[u] = float64(v) / 1000
			}
		}
		snapStd = append(snapStd, groupStddev(groups, byUnit)...)
	}
	for _, s := range inv.Status() {
		skewEvals += s.Evals
		skewViols += s.Violations
	}
	return stats.NewCDF(snapStd), stats.NewCDF(pollStd), skewEvals, skewViols
}

func groupStddev(groups [][]dataplane.UnitID, values map[dataplane.UnitID]float64) []float64 {
	var out []float64
	for _, g := range groups {
		var xs []float64
		for _, u := range g {
			if v, ok := values[u]; ok {
				xs = append(xs, v)
			}
		}
		if len(xs) == len(g) {
			out = append(out, stats.PopStddev(xs))
		}
	}
	return out
}
