package experiments

import (
	"fmt"

	"speedlight/internal/clock"
	"speedlight/internal/emunet"
	"speedlight/internal/packet"
	"speedlight/internal/sim"
	"speedlight/internal/stats"
	"speedlight/internal/topology"
)

// The ablations quantify the design choices DESIGN.md calls out:
//
//   - multi-initiator initiation (Section 3: "snapshots in our system
//     are initiated at all nodes simultaneously") versus the classical
//     single-initiator Chandy-Lamport start;
//   - the clock-synchronization protocol (Section 2.1's PTP-vs-NTP
//     motivation, and the perfect-clock lower bound);
//   - the notification socket buffer (Section 8.2: bursts above the
//     sustained rate survive "given a sufficiently large socket
//     receive buffer").

// InitiatorsResult compares multi-initiator and single-initiator
// synchronization.
type InitiatorsResult struct {
	Multi  *stats.CDF // sync spread, µs
	Single *stats.CDF
}

// AblationInitiators measures snapshot synchronization with the paper's
// multi-initiator design against a single-initiator run where the epoch
// must propagate through the network on piggybacked traffic.
func AblationInitiators(o Options) *InitiatorsResult {
	run := func(single bool) *stats.CDF {
		n, ls := testbedNet(o.Seed, o.Shards, testbedHostBps, testbedFabricBps, nil)
		fire := n.ScheduleSnapshot
		if single {
			fire = func(at sim.Time) (packet.SeqID, error) { return n.ScheduleSnapshotSingle(ls.Leaves[0], at) }
		}
		ids := syncSeries(n, 2*sim.Microsecond, 0, scale(o, 80, 30), sim.Millisecond, 50*sim.Millisecond, fire)
		return stats.NewCDF(n.SyncSpreadsMicros(ids))
	}
	return &InitiatorsResult{Multi: run(false), Single: run(true)}
}

// Table renders the initiator ablation.
func (r *InitiatorsResult) Table() *Table {
	return &Table{
		Title:  "Ablation: multi-initiator vs single-initiator synchronization",
		Header: []string{"Design", "median sync (us)", "p90 (us)", "max (us)"},
		Rows: [][]string{
			{"multi-initiator (paper)", fmt.Sprintf("%.1f", r.Multi.Median()),
				fmt.Sprintf("%.1f", r.Multi.Quantile(0.9)), fmt.Sprintf("%.1f", r.Multi.MaxValue())},
			{"single initiator", fmt.Sprintf("%.1f", r.Single.Median()),
				fmt.Sprintf("%.1f", r.Single.Quantile(0.9)), fmt.Sprintf("%.1f", r.Single.MaxValue())},
		},
		Notes: []string{
			"host-facing ingress units cannot learn epochs from traffic (their upstream is a host, Section 6),",
			"so a single-initiator snapshot reaches them only through recovery retries - the multi-initiator",
			"design exists precisely to avoid this",
		},
	}
}

// ClocksResult compares clock-discipline quality.
type ClocksResult struct {
	Perfect *stats.CDF
	PTP     *stats.CDF
	NTP     *stats.CDF
}

// AblationClocks measures snapshot synchronization under perfect
// clocks, PTP discipline (the paper's choice), and LAN NTP.
func AblationClocks(o Options) *ClocksResult {
	run := func(cc clock.Config) *stats.CDF {
		n, _ := testbedNet(o.Seed, o.Shards, testbedHostBps, testbedFabricBps, func(c *emunet.Config) { c.Clock = cc })
		// NTP-scale offsets need a deadline far enough out that no
		// clock has already passed it.
		ids := syncSeries(n, 2*sim.Microsecond, 0, scale(o, 80, 30), 5*sim.Millisecond, 100*sim.Millisecond, n.ScheduleSnapshot)
		return stats.NewCDF(n.SyncSpreadsMicros(ids))
	}
	return &ClocksResult{
		Perfect: run(clock.Perfect()),
		PTP:     run(clock.PTP()),
		NTP:     run(clock.NTPLAN()),
	}
}

// Table renders the clock ablation.
func (r *ClocksResult) Table() *Table {
	row := func(name string, c *stats.CDF) []string {
		return []string{name, fmt.Sprintf("%.1f", c.Median()), fmt.Sprintf("%.1f", c.MaxValue())}
	}
	return &Table{
		Title:  "Ablation: clock discipline vs snapshot synchronization",
		Header: []string{"Clock", "median sync (us)", "max (us)"},
		Rows: [][]string{
			row("perfect", r.Perfect),
			row("PTP (paper)", r.PTP),
			row("LAN NTP", r.NTP),
		},
		Notes: []string{
			"PTP's microsecond residuals keep snapshots under an RTT; millisecond NTP error dominates everything else",
		},
	}
}

// BufferPoint is one socket-buffer size's outcome under burst load.
type BufferPoint struct {
	Capacity int
	Drops    uint64
	Complete int
}

// BuffersResult holds the buffer-size sweep.
type BuffersResult struct {
	BurstRateHz float64
	BurstLen    int
	Points      []BufferPoint
}

// AblationNotifBuffers fires a burst of snapshots far above the
// sustainable rate at a 16-port switch and sweeps the notification
// socket buffer: a sufficiently large buffer absorbs the burst with no
// loss (Section 8.2), while small buffers drop notifications and lean
// on recovery.
func AblationNotifBuffers(o Options) *BuffersResult {
	const ports = 16
	const burst = 50
	res := &BuffersResult{BurstRateHz: 5000, BurstLen: burst}
	for _, capacity := range []int{8, 64, 512, 4096} {
		n := starNet(ports, o.Seed, 0, capacity)
		period := sim.DurationOfSeconds(1 / res.BurstRateHz)
		for i := 0; i < burst; i++ {
			n.Engine().After(period, func() { n.ScheduleSnapshot(n.Engine().Now()) })
			n.RunFor(period)
		}
		n.RunFor(2 * sim.Second) // drain the burst
		res.Points = append(res.Points, BufferPoint{
			Capacity: capacity,
			Drops:    n.NotifDropsTotal(),
			Complete: len(n.Snapshots()),
		})
	}
	return res
}

// Table renders the buffer ablation.
func (r *BuffersResult) Table() *Table {
	t := &Table{
		Title: fmt.Sprintf("Ablation: notification socket buffer under a %d-snapshot burst at %.0f Hz",
			r.BurstLen, r.BurstRateHz),
		Header: []string{"Buffer (notifs)", "drops", "snapshots completed"},
	}
	for _, p := range r.Points {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", p.Capacity),
			fmt.Sprintf("%d", p.Drops),
			fmt.Sprintf("%d/%d", p.Complete, r.BurstLen),
		})
	}
	t.Notes = append(t.Notes,
		"the burst is ~70x the sustainable 16-port rate; a large enough buffer absorbs it losslessly")
	return t
}

// PartialPoint is one partial-deployment configuration's outcome.
type PartialPoint struct {
	Disabled     int // snapshot-disabled spines
	Units        int // units covered by the snapshot
	MedianSyncUs float64
	Consistent   int // consistent snapshots out of Total
	Total        int
}

// PartialResult holds the partial-deployment sweep.
type PartialResult struct {
	Points []PartialPoint
}

// AblationPartialDeployment disables snapshot support on a growing set
// of spine switches (Section 10: partial deployment). Traffic still
// crosses the disabled devices — their pipelines forward the header
// untouched — and the snapshot remains consistent and microsecond-
// synchronous over the participating devices.
func AblationPartialDeployment(o Options) *PartialResult {
	res := &PartialResult{}
	for disabled := 0; disabled <= 2; disabled++ {
		n, _ := testbedNet(o.Seed, o.Shards, testbedHostBps, testbedFabricBps, func(c *emunet.Config) {
			c.SnapshotDisabled = map[topology.NodeID]bool{}
			for i := 0; i < disabled; i++ {
				c.SnapshotDisabled[topology.NodeID(2+i)] = true // spines are nodes 2,3
			}
		})
		ids := syncSeries(n, 2*sim.Microsecond, 0, scale(o, 80, 20), sim.Millisecond, 50*sim.Millisecond, n.ScheduleSnapshot)
		spreads := n.SyncSpreadsMicros(ids)
		pt := PartialPoint{Disabled: disabled, Total: len(ids)}
		for _, g := range n.Snapshots() {
			if pt.Units == 0 {
				pt.Units = len(g.Results)
			}
			if g.Consistent {
				pt.Consistent++
			}
		}
		if len(spreads) > 0 {
			pt.MedianSyncUs = stats.NewCDF(spreads).Median()
		}
		res.Points = append(res.Points, pt)
	}
	return res
}

// Table renders the partial-deployment ablation.
func (r *PartialResult) Table() *Table {
	t := &Table{
		Title:  "Ablation: partial deployment (snapshot-disabled spines)",
		Header: []string{"Disabled spines", "units covered", "median sync (us)", "consistent"},
	}
	for _, p := range r.Points {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", p.Disabled),
			fmt.Sprintf("%d", p.Units),
			fmt.Sprintf("%.1f", p.MedianSyncUs),
			fmt.Sprintf("%d/%d", p.Consistent, p.Total),
		})
	}
	t.Notes = append(t.Notes,
		"disabled devices forward headers untouched; the snapshot covers the participating devices consistently (Section 10)")
	return t
}
