package experiments

import (
	"fmt"
	"math"

	"speedlight/internal/sim"
)

// Fig10Point is one measurement: the maximum sustained snapshot rate
// for a router with the given port count.
type Fig10Point struct {
	Ports     int
	MaxRateHz float64
}

// Fig10Result holds the rate-versus-ports sweep.
type Fig10Result struct {
	Points []Fig10Point
}

// Fig10 measures the maximum sustained snapshot frequency before
// notification-queue buildup, for a single switch with a range of port
// counts and no channel state (Section 8.2). The bottleneck is the
// control plane's per-notification processing latency: each snapshot
// produces two notifications per port (ingress and egress snapshot ID
// advances), so the sustainable rate falls inversely with port count.
//
// The sweep covers the paper's 4..64 ports; each candidate rate is
// sustained for one trial. A single-switch star cannot exploit shards,
// but honours them.
func Fig10(o Options) *Fig10Result {
	trial := scale(o, 500*sim.Millisecond, 80*sim.Millisecond)
	res := &Fig10Result{}
	for _, ports := range scale(o, []int{4, 8, 16, 32, 64}, []int{8, 64}) {
		rate := maxSustainedRate(ports, trial, o)
		res.Points = append(res.Points, Fig10Point{Ports: ports, MaxRateHz: rate})
	}
	return res
}

// sustains reports whether a switch with the given port count can take
// snapshots at rateHz for trial without notification loss or queue
// buildup.
func sustains(ports int, rateHz float64, trial sim.Duration, o Options) bool {
	n := starNet(ports, o.Seed, o.Shards, 0)
	period := sim.DurationOfSeconds(1 / rateHz)
	tick := n.Engine().NewTicker(period, func() {
		// Errors cannot occur without the wraparound window.
		if _, err := n.ScheduleSnapshot(n.Engine().Now()); err != nil {
			panic(err)
		}
	})
	n.RunFor(trial)
	tick.Stop()
	if n.NotifDropsTotal() > 0 {
		return false
	}
	// Sustained operation also means the CPU queue keeps up: after the
	// load stops, at most the final snapshot's worth may linger.
	pending := n.Switch(0).DP.PendingNotifs()
	return pending <= 2*ports
}

// maxSustainedRate binary-searches the highest sustainable rate to ~5%.
func maxSustainedRate(ports int, trial sim.Duration, o Options) float64 {
	lo, hi := 1.0, 50_000.0
	if !sustains(ports, lo, trial, o) {
		return 0
	}
	for hi/lo > 1.05 {
		mid := math.Sqrt(lo * hi) // geometric midpoint: the sweep is log-scale
		if sustains(ports, mid, trial, o) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// Figure renders the sweep in the paper's form.
func (r *Fig10Result) Figure() *Figure {
	f := &Figure{
		Title:  "Figure 10: max sustained snapshot rate vs ports per router",
		XLabel: "ports per router",
		YLabel: "max rate (Hz)",
	}
	s := Series{Name: "max sustained rate"}
	for _, p := range r.Points {
		s.Points = append(s.Points, Point{X: float64(p.Ports), Y: p.MaxRateHz})
	}
	f.Series = append(f.Series, s)
	for _, p := range r.Points {
		if p.Ports == 64 {
			f.Notes = append(f.Notes, fmt.Sprintf(
				"64-port rate: %.0f Hz (paper: >70 Hz; bottleneck is control-plane processing)", p.MaxRateHz))
		}
	}
	return f
}
