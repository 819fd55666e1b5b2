package experiments

import (
	"fmt"

	"speedlight/internal/dataplane"
	"speedlight/internal/emunet"
	"speedlight/internal/packet"
	"speedlight/internal/polling"
	"speedlight/internal/routing"
	"speedlight/internal/sim"
	"speedlight/internal/stats"
	"speedlight/internal/workload"
)

// fig12Runs is the number of independent job executions pooled per
// combination. ECMP's imbalance depends on how the jobs' flow tuples
// happen to hash, so a campaign observes several executions (the
// paper's workloads likewise ran repeatedly during measurement).
const fig12Runs = 3

// Fig12Series names one (balancer, method) combination's distribution
// of uplink-load standard deviations.
type Fig12Series struct {
	Balancer string // "ecmp" or "flowlet"
	Method   string // "snapshots" or "polling"
	CDF      *stats.CDF
}

// Fig12Workload holds one application's four series.
type Fig12Workload struct {
	Workload string
	Series   []Fig12Series
}

// Fig12Result holds the three sub-figures.
type Fig12Result struct {
	Workloads []Fig12Workload
}

// Fig12 evaluates load balancing the way Section 8.3 does: under each
// workload and balancing algorithm it takes a series of snapshots of
// the EWMA of packet interarrival time on every uplink, computes the
// standard deviation across the uplinks of each leaf at each instant
// (uplinks are compared only to other uplinks of the same switch), and
// plots the CDF of those deviations — alongside the same analysis done
// with asynchronous polling.
func Fig12(o Options) *Fig12Result {
	samples := scale(o, 60, 50) // snapshots (and poll sweeps) per execution
	res := &Fig12Result{}
	apps := []string{"hadoop", "graphx", "memcache"}
	for _, app := range apps {
		wl := Fig12Workload{Workload: app}
		for _, balancer := range []string{"ecmp", "flowlet"} {
			var snapStd, pollStd []float64
			for run := 0; run < fig12Runs; run++ {
				s, p := fig12Run(app, balancer, o.Seed+int64(run)*101, o.Shards, samples)
				snapStd = append(snapStd, s...)
				pollStd = append(pollStd, p...)
			}
			wl.Series = append(wl.Series,
				Fig12Series{Balancer: balancer, Method: "snapshots", CDF: stats.NewCDF(snapStd)},
				Fig12Series{Balancer: balancer, Method: "polling", CDF: stats.NewCDF(pollStd)},
			)
		}
		res.Workloads = append(res.Workloads, wl)
	}
	return res
}

// fig12Run measures one (workload, balancer) combination with both
// methods over the same run, returning per-instant uplink standard
// deviations in microseconds.
func fig12Run(app, balancer string, seed int64, shards, samples int) (snapStd, pollStd []float64) {
	net, ls := testbedNet(seed, shards, testbedHostBps, testbedFabricBps, func(c *emunet.Config) {
		c.Metrics = emunet.EWMAMetrics
		if balancer == "flowlet" {
			c.NewBalancer = routing.PaperFlowlet
		}
	})
	wl, err := workload.ByName(app, net)
	if err != nil {
		panic(err)
	}
	wl.Start()
	net.RunFor(5 * sim.Millisecond) // warm up EWMAs

	// The units under study: uplink egress units, grouped per leaf.
	groups := emunet.UplinkUnits(ls)
	poller := polling.New(net, polling.Config{})
	// A real polling framework sweeps every counter in the network; the
	// uplink readings land at whatever instants the sweep reaches them
	// (the full-sequence spread the paper measures at 2.6 ms median).
	sweep := net.Units()
	// One snapshot and one poll sweep per instant, over the same live
	// traffic.
	ids := net.SnapshotSeries(samples, sim.Millisecond, 50*sim.Millisecond, func(now sim.Time) (packet.SeqID, error) {
		id, err := net.ScheduleSnapshot(now.Add(200 * sim.Microsecond))
		poller.PollAll(sweep, func(s []polling.Sample) {
			pollStd = groupStddevs(pollStd, groups, pollValues(s))
		})
		return id, err
	})
	wl.Stop()

	snapStd = imbalanceSamples(net.Completed(ids), groups, 0.001) // ns -> µs
	return snapStd, pollStd
}

// pollValues looks a poll sweep's samples up by unit, in microseconds.
func pollValues(s []polling.Sample) func(dataplane.UnitID) (float64, bool) {
	us := make(map[dataplane.UnitID]float64, len(s))
	for _, smp := range s {
		us[smp.Unit] = float64(smp.Value) / 1000
	}
	return func(u dataplane.UnitID) (float64, bool) {
		v, ok := us[u]
		return v, ok
	}
}

// Figures renders one figure per workload, in the paper's form.
func (r *Fig12Result) Figures() []*Figure {
	var out []*Figure
	for _, wl := range r.Workloads {
		f := &Figure{
			Title:  fmt.Sprintf("Figure 12 (%s): stddev of uplink load balancing", wl.Workload),
			XLabel: "standard deviation of uplink EWMA interarrival (us)",
			YLabel: "CDF",
		}
		for _, s := range wl.Series {
			ser := Series{Name: fmt.Sprintf("%s %s", s.Balancer, s.Method)}
			for _, p := range s.CDF.Points(20) {
				ser.Points = append(ser.Points, Point{X: p.X, Y: p.F})
			}
			f.Series = append(f.Series, ser)
			f.Notes = append(f.Notes, fmt.Sprintf("%s %s: stddev p50 %.2f us, p75 %.2f us (n=%d)",
				s.Balancer, s.Method, s.CDF.Median(), s.CDF.Quantile(0.75), s.CDF.N()))
		}
		out = append(out, f)
	}
	return out
}

// Median returns the median stddev for one combination, for tests and
// summaries.
func (r *Fig12Result) Median(workload, balancer, method string) (float64, bool) {
	return r.Quantile(workload, balancer, method, 0.5)
}

// Quantile returns the q-th quantile of the stddev distribution for one
// combination.
func (r *Fig12Result) Quantile(workload, balancer, method string, q float64) (float64, bool) {
	for _, wl := range r.Workloads {
		if wl.Workload != workload {
			continue
		}
		for _, s := range wl.Series {
			if s.Balancer == balancer && s.Method == method {
				return s.CDF.Quantile(q), true
			}
		}
	}
	return 0, false
}
