package experiments

import (
	"fmt"

	"speedlight/internal/packet"
	"speedlight/internal/polling"
	"speedlight/internal/sim"
	"speedlight/internal/stats"
	"speedlight/internal/workload"
)

// Fig9Config parameterizes the synchronization experiment.
type Fig9Config struct {
	// Snapshots is the number of snapshots (and poll sweeps) measured.
	// The paper plots a full CDF; 200 gives a smooth one.
	Snapshots int
	Seed      int64
	// Shards selects the simulation engine (0/1 serial, >=2 parallel).
	// Results are identical either way.
	Shards int
}

func (c *Fig9Config) defaults() {
	if c.Snapshots == 0 {
		c.Snapshots = 200
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

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
func Fig9(cfg Fig9Config) *Fig9Result {
	cfg.defaults()
	res := &Fig9Result{}

	snapshotRun := func(channelState bool) *stats.CDF {
		n, _ := testbedNet(cfg.Seed, cfg.Shards, channelState, nil)
		// Heavy background load: the testbed measured synchronization
		// under running application workloads, so every utilized
		// channel sees fresh-epoch traffic within microseconds.
		bg := &workload.Uniform{Net: n, Hosts: n.Topo().HostIDs(), Interval: sim.Microsecond, PacketSize: 500}
		bg.Start()
		n.RunFor(2 * sim.Millisecond) // warm up

		// The 50 ms drain lets stragglers finish.
		ids := n.SnapshotSeries(cfg.Snapshots, 2*sim.Millisecond, 50*sim.Millisecond, func(now sim.Time) (packet.SeqID, error) {
			return n.ScheduleSnapshot(now.Add(sim.Millisecond))
		})
		return stats.NewCDF(n.SyncSpreadsMicros(ids))
	}

	res.SwitchState = snapshotRun(false)
	res.SwitchChannelState = snapshotRun(true)

	// Polling baseline: sequential sweeps over every unit.
	n, _ := testbedNet(cfg.Seed+1, cfg.Shards, false, nil)
	bg := &workload.Uniform{Net: n, Hosts: n.Topo().HostIDs(), Interval: 5 * sim.Microsecond}
	bg.Start()
	n.RunFor(2 * sim.Millisecond)
	poller := polling.New(n, polling.Config{})
	units := n.Units()
	var spreads []float64
	for i := 0; i < cfg.Snapshots; i++ {
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
