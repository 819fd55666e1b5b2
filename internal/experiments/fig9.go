package experiments

import (
	"fmt"

	"speedlight/internal/emunet"
	"speedlight/internal/polling"
	"speedlight/internal/sim"
	"speedlight/internal/stats"
	"speedlight/internal/workload"
)

// Fig9Result holds the three synchronization distributions of Figure 9,
// in microseconds.
type Fig9Result struct {
	SwitchState        *stats.CDF // Speedlight without channel state
	SwitchChannelState *stats.CDF // Speedlight with channel state
	Polling            *stats.CDF // traditional counter polling
}

// Fig9 measures the synchronization of network-wide measurements using
// snapshots and traditional polling (Section 8.1). Synchronization of a
// snapshot is the difference between the earliest and latest data-plane
// notification timestamps carrying its ID; for polling it is the spread
// between the first and last poll of a sweep.
func Fig9(o Options) *Fig9Result {
	// The paper plots a full CDF; 200 snapshots give a smooth one.
	snapshots := scale(o, 200, 40)
	res := &Fig9Result{}

	snapshotRun := func(channelState bool) *stats.CDF {
		n, _ := testbedNet(o.Seed, o.Shards, testbedHostBps, testbedFabricBps, func(c *emunet.Config) {
			c.ChannelState = channelState
		})
		// Heavy background load: the testbed measured synchronization
		// under running application workloads, so every utilized
		// channel sees fresh-epoch traffic within microseconds.
		ids := syncSeries(n, sim.Microsecond, 500, snapshots, sim.Millisecond, 50*sim.Millisecond, n.ScheduleSnapshot)
		return stats.NewCDF(n.SyncSpreadsMicros(ids))
	}

	res.SwitchState = snapshotRun(false)
	res.SwitchChannelState = snapshotRun(true)

	// Polling baseline: sequential sweeps over every unit.
	n, _ := testbedNet(o.Seed+1, o.Shards, testbedHostBps, testbedFabricBps, nil)
	bg := &workload.Uniform{Net: n, Hosts: n.Topo().HostIDs(), Interval: 5 * sim.Microsecond}
	bg.Start()
	n.RunFor(2 * sim.Millisecond)
	poller := polling.New(n, polling.Config{})
	units := n.Units()
	var spreads []float64
	for i := 0; i < snapshots; i++ {
		done := false
		poller.PollAll(units, func(s []polling.Sample) {
			spreads = append(spreads, polling.Spread(s).Micros())
			done = true
		})
		for !done {
			n.RunFor(sim.Millisecond)
		}
	}
	res.Polling = stats.NewCDF(spreads)
	return res
}

// Figure renders the result in the paper's form: CDFs of
// synchronization in microseconds.
func (r *Fig9Result) Figure() *Figure {
	f := &Figure{
		Title:  "Figure 9: synchronization of network-wide measurements",
		XLabel: "synchronization (us)",
		YLabel: "CDF",
	}
	for _, s := range []struct {
		name string
		cdf  *stats.CDF
	}{
		{"Switch State", r.SwitchState},
		{"Switch + Channel State", r.SwitchChannelState},
		{"Polling", r.Polling},
	} {
		ser := Series{Name: s.name}
		for _, p := range s.cdf.Points(20) {
			ser.Points = append(ser.Points, Point{X: p.X, Y: p.F})
		}
		f.Series = append(f.Series, ser)
	}
	f.Notes = append(f.Notes,
		fmt.Sprintf("median sync: switch state %.1f us, +channel state %.1f us, polling %.0f us (paper: ~6.4 us / ~6.4 us / ~2600 us)",
			r.SwitchState.Median(), r.SwitchChannelState.Median(), r.Polling.Median()),
		fmt.Sprintf("max sync: switch state %.1f us, +channel state %.1f us (paper: 22 us / 27 us)",
			r.SwitchState.MaxValue(), r.SwitchChannelState.MaxValue()))
	return f
}
