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
)

// portsPerRouter matches the paper's 64-port routers.
const portsPerRouter = 64

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
//
// The sizes are the paper's 10..10000 routers, log-spaced; the
// calibration run takes enough snapshots to fit the offset tail.
func Fig11(o Options) *Fig11Result {
	routerCounts := scale(o, []int{10, 32, 100, 316, 1000, 3162, 10000}, []int{10, 100, 1000, 10000})
	trials := scale(o, 50, 30)
	offsets := collectTestbedOffsets(o, scale(o, 150, 60))
	shift, mu, sigma := fitShiftedLogNormal(offsets)
	quantile := func(q float64) float64 {
		return shift + math.Exp(mu+sigma*stats.QNorm(q))
	}
	r := rand.New(rand.NewSource(o.Seed + 7))

	res := &Fig11Result{}
	for _, routers := range routerCounts {
		k := float64(routers * portsPerRouter * 2) // ingress+egress units
		var sum float64
		for t := 0; t < trials; t++ {
			hi := quantile(math.Pow(r.Float64(), 1/k))
			lo := quantile(1 - math.Pow(r.Float64(), 1/k))
			sum += (hi - lo) / 1000 // ns -> us
		}
		res.Points = append(res.Points, Fig11Point{
			Routers:   routers,
			AvgSyncUs: sum / float64(trials),
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
func collectTestbedOffsets(o Options, snapshots int) []float64 {
	deadlines := map[packet.SeqID]sim.Time{}
	type rec struct {
		id packet.SeqID
		at sim.Time
	}
	var (
		recsMu sync.Mutex // OnProgress fires concurrently under shards
		recs   []rec
	)
	n, _ := testbedNet(o.Seed, o.Shards, testbedHostBps, testbedFabricBps, func(c *emunet.Config) {
		c.OnProgress = func(id packet.SeqID, at sim.Time) {
			recsMu.Lock()
			recs = append(recs, rec{id, at})
			recsMu.Unlock()
		}
	})
	syncSeries(n, 2*sim.Microsecond, 0, snapshots, sim.Millisecond, 20*sim.Millisecond, func(deadline sim.Time) (packet.SeqID, error) {
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
