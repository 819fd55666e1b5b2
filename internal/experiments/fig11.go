package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"

	"speedlight/internal/emunet"
	"speedlight/internal/packet"
	"speedlight/internal/sim"
	"speedlight/internal/stats"
	"speedlight/internal/workload"
)

// Fig11Config parameterizes the scale experiment.
type Fig11Config struct {
	// RouterCounts are the simulated network sizes (paper: 10..10000,
	// log-spaced).
	RouterCounts []int
	// PortsPerRouter matches the paper's 64-port routers.
	PortsPerRouter int
	// Trials per network size.
	Trials int
	// CalibrationSnapshots sets how many snapshots the testbed run uses
	// to collect the offset distribution.
	CalibrationSnapshots int
	Seed                 int64
	// Shards selects the simulation engine for the calibration run
	// (0/1 serial, >=2 parallel). Results are identical either way.
	Shards int
}

func (c *Fig11Config) defaults() {
	if len(c.RouterCounts) == 0 {
		c.RouterCounts = []int{10, 32, 100, 316, 1000, 3162, 10000}
	}
	if c.PortsPerRouter == 0 {
		c.PortsPerRouter = 64
	}
	if c.Trials == 0 {
		c.Trials = 50
	}
	if c.CalibrationSnapshots == 0 {
		c.CalibrationSnapshots = 150
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// Fig11Point is the average synchronization at one network size.
type Fig11Point struct {
	Routers   int
	AvgSyncUs float64
}

// Fig11Result holds the scale sweep.
type Fig11Result struct {
	Points []Fig11Point
}

// Fig11 estimates the average whole-network synchronization of
// Speedlight snapshots in large deployments (Section 8.2). Mirroring
// the paper's methodology, the per-unit notification-time offsets
// (clock drift + scheduling + initiation-to-execution latency) are
// collected from the emulated testbed, and larger networks are
// simulated by drawing per-unit offsets from that empirical
// distribution: the synchronization of a snapshot is the range of
// offsets across all routers and ports.
//
// A shifted lognormal is fitted to the collected offsets by moment
// matching: the growth of synchronization with network size comes from
// the distribution's tail, which a bounded raw-resampling scheme would
// clip. The max/min of k i.i.d. draws is then sampled exactly through
// the inverse CDF (max = Q(U^(1/k))), so 10,000-router networks cost
// the same as 10-router ones.
func Fig11(cfg Fig11Config) *Fig11Result {
	cfg.defaults()
	offsets := collectTestbedOffsets(cfg)
	shift, mu, sigma := fitShiftedLogNormal(offsets)
	quantile := func(q float64) float64 {
		return shift + math.Exp(mu+sigma*stats.QNorm(q))
	}
	r := rand.New(rand.NewSource(cfg.Seed + 7))

	res := &Fig11Result{}
	for _, routers := range cfg.RouterCounts {
		k := float64(routers * cfg.PortsPerRouter * 2) // ingress+egress units
		var sum float64
		for t := 0; t < cfg.Trials; t++ {
			hi := quantile(math.Pow(r.Float64(), 1/k))
			lo := quantile(1 - math.Pow(r.Float64(), 1/k))
			sum += (hi - lo) / 1000 // ns -> us
		}
		res.Points = append(res.Points, Fig11Point{
			Routers:   routers,
			AvgSyncUs: sum / float64(cfg.Trials),
		})
	}
	return res
}

// fitShiftedLogNormal fits offset ~ shift + LogNormal(mu, sigma) by
// moment matching on the positive part.
func fitShiftedLogNormal(samples []float64) (shift, mu, sigma float64) {
	shift = stats.Min(samples) - 500 // leave 0.5 µs of support below the observed min
	var pos []float64
	for _, s := range samples {
		pos = append(pos, s-shift)
	}
	m := stats.Mean(pos)
	v := stats.Variance(pos)
	sigma2 := math.Log(1 + v/(m*m))
	return shift, math.Log(m) - sigma2/2, math.Sqrt(sigma2)
}

// collectTestbedOffsets runs snapshots on the emulated testbed and
// returns, for every progress notification, its offset in nanoseconds
// from the snapshot's scheduled initiation deadline.
func collectTestbedOffsets(cfg Fig11Config) []float64 {
	deadlines := map[packet.SeqID]sim.Time{}
	type rec struct {
		id packet.SeqID
		at sim.Time
	}
	var (
		recsMu sync.Mutex // OnProgress fires concurrently under shards
		recs   []rec
	)
	n, _ := testbedNet(cfg.Seed, cfg.Shards, false, func(c *emunet.Config) {
		c.OnProgress = func(id packet.SeqID, at sim.Time) {
			recsMu.Lock()
			recs = append(recs, rec{id, at})
			recsMu.Unlock()
		}
	})
	bg := &workload.Uniform{Net: n, Hosts: n.Topo().HostIDs(), Interval: 2 * sim.Microsecond}
	bg.Start()
	n.RunFor(2 * sim.Millisecond)

	n.SnapshotSeries(cfg.CalibrationSnapshots, 2*sim.Millisecond, 20*sim.Millisecond, func(now sim.Time) (packet.SeqID, error) {
		deadline := now.Add(sim.Millisecond)
		id, err := n.ScheduleSnapshot(deadline)
		if err == nil {
			deadlines[id] = deadline
		}
		return id, err
	})

	// Under shards, OnProgress arrival order depends on goroutine
	// interleaving; sorting by (id, at) restores a deterministic
	// summation order (ties carry identical offset values).
	sort.Slice(recs, func(a, b int) bool {
		if recs[a].id != recs[b].id {
			return recs[a].id < recs[b].id
		}
		return recs[a].at < recs[b].at
	})
	var offsets []float64
	for _, r := range recs {
		if deadline, ok := deadlines[r.id]; ok {
			offsets = append(offsets, float64(r.at.Sub(deadline)))
		}
	}
	if len(offsets) == 0 {
		panic("experiments: calibration produced no offsets")
	}
	return offsets
}

// Figure renders the sweep in the paper's form.
func (r *Fig11Result) Figure() *Figure {
	f := &Figure{
		Title:  "Figure 11: average synchronization in larger deployments (64-port routers)",
		XLabel: "number of routers",
		YLabel: "synchronization (us)",
	}
	s := Series{Name: "average synchronization"}
	for _, p := range r.Points {
		s.Points = append(s.Points, Point{X: float64(p.Routers), Y: p.AvgSyncUs})
	}
	f.Series = append(f.Series, s)
	last := r.Points[len(r.Points)-1]
	f.Notes = append(f.Notes, fmt.Sprintf(
		"sync at %d routers: %.1f us (paper: grows asymptotically, stays under ~100 us / typical RTTs)",
		last.Routers, last.AvgSyncUs))
	return f
}
