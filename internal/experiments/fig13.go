package experiments

import (
	"fmt"

	"speedlight/internal/dataplane"
	"speedlight/internal/emunet"
	"speedlight/internal/packet"
	"speedlight/internal/polling"
	"speedlight/internal/sim"
	"speedlight/internal/stats"
	"speedlight/internal/topology"
	"speedlight/internal/workload"
)

// Fig13's series length and significance cutoff are the paper's: 100
// snapshots, p < 0.1. Its shape test asserts that same scale, so Quick
// leaves Fig13 unchanged.
const (
	fig13Snapshots = 100
	fig13Alpha     = 0.1
)

// Fig13Method holds one measurement method's correlation analysis.
type Fig13Method struct {
	Method string
	Matrix *stats.CorrMatrix
	// Units maps matrix indices to processing units.
	Units []dataplane.UnitID
	// Significant is the number of significant pairs at the cutoff.
	Significant int
	// MasterPortClean reports ground truth 1: no significant
	// correlation between the master server's egress port and any other
	// port (the master does not participate in the computation).
	MasterPortClean bool
	// ECMPPairsPositive counts ground truth 2: leaf uplink pairs (the
	// possible ECMP next-hops of the same traffic) found significantly
	// POSITIVELY correlated, out of ECMPPairsTotal.
	ECMPPairsPositive int
	// ECMPPairsNegative counts uplink pairs found significantly
	// negatively correlated — the "worse" failure mode the paper
	// highlights for polling.
	ECMPPairsNegative int
	ECMPPairsTotal    int
}

// Fig13Result compares snapshot-based and polling-based correlation
// analysis under the GraphX workload.
type Fig13Result struct {
	Snapshot Fig13Method
	Polling  Fig13Method
	Alpha    float64
}

// Fig13 reproduces Section 8.4: EWMA packet-timing series are collected
// for every egress port in repeated snapshots (and in poll sweeps over
// the same run), pairwise Spearman correlations are computed, and the
// significant ones are compared against two ground truths — the idle
// master's port must be uncorrelated, and same-leaf uplink pairs
// (ECMP next-hops) must be positively correlated.
func Fig13(o Options) *Fig13Result {
	net, ls := testbedNet(o.Seed, o.Shards, testbedHostBps, testbedFabricBps, func(c *emunet.Config) {
		c.Metrics = emunet.EWMAMetrics
	})
	hosts := net.Topo().HostIDs()
	// Host 0 is the master and does not participate (ground truth 1).
	// Long supersteps give the on/off common mode that correlates the
	// two ECMP next-hop uplinks of each leaf (ground truth 2).
	wl := &workload.PageRank{Net: net, Workers: hosts[1:], BurstPackets: 250}
	wl.Start()
	net.RunFor(5 * sim.Millisecond)

	// Series over every egress unit of every switch.
	units := egressUnits(net)
	idx := make(map[dataplane.UnitID]int, len(units))
	for i, u := range units {
		idx[u] = i
	}
	pollSeries := make([][]float64, len(units))

	poller := polling.New(net, polling.Config{})
	sweep := net.Units()
	// Supersteps are 1 ms; the extra 137 µs samples across their phases.
	const gap = sim.Millisecond + 137*sim.Microsecond
	net.SnapshotSeries(fig13Snapshots, gap, 50*sim.Millisecond, func(now sim.Time) (packet.SeqID, error) {
		id, err := net.ScheduleSnapshot(now.Add(200 * sim.Microsecond))
		// The polling framework sweeps every counter; only the
		// egress units' readings feed the correlation series.
		poller.PollAll(sweep, func(s []polling.Sample) {
			for _, smp := range s {
				if i, ok := idx[smp.Unit]; ok {
					pollSeries[i] = append(pollSeries[i], float64(smp.Value))
				}
			}
		})
		return id, err
	})
	wl.Stop()

	snapSeries := unitSeries(net.Snapshots(), units)

	// Equalize polling series lengths (a sweep cut off by the end of
	// the run would desynchronize the matrix).
	trim(pollSeries)

	res := &Fig13Result{Alpha: fig13Alpha}
	res.Snapshot = analyzeFig13("snapshots", snapSeries, units, ls, net, fig13Alpha)
	res.Polling = analyzeFig13("polling", pollSeries, units, ls, net, fig13Alpha)
	return res
}

// egressUnits lists every egress unit in the network.
func egressUnits(net *emunet.Network) []dataplane.UnitID {
	var out []dataplane.UnitID
	for _, id := range net.Units() {
		if id.Dir == dataplane.Egress {
			out = append(out, id)
		}
	}
	return out
}

func trim(series [][]float64) {
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

func analyzeFig13(method string, series [][]float64, units []dataplane.UnitID,
	ls *topology.LeafSpine, net *emunet.Network, alpha float64) Fig13Method {
	m, err := stats.NewCorrMatrix(series)
	if err != nil {
		panic(err)
	}
	out := Fig13Method{Method: method, Matrix: m, Units: units}
	out.Significant = m.SignificantCount(alpha)

	// Ground truth 1: the master (host 0) egress port.
	masterIdx := -1
	masterHost := net.Topo().Host(0)
	for i, u := range units {
		if u.Node == masterHost.Node && u.Port == masterHost.Port {
			masterIdx = i
		}
	}
	out.MasterPortClean = true
	for _, r := range m.Results {
		if (r.I == masterIdx || r.J == masterIdx) && r.Significant(alpha) {
			out.MasterPortClean = false
		}
	}

	// Ground truth 2: same-leaf uplink pairs.
	for _, leaf := range ls.Leaves {
		ports := ls.UplinkPorts(leaf)
		for a := 0; a < len(ports); a++ {
			for b := a + 1; b < len(ports); b++ {
				ia := idxOf(units, dataplane.UnitID{Node: leaf, Port: ports[a], Dir: dataplane.Egress})
				ib := idxOf(units, dataplane.UnitID{Node: leaf, Port: ports[b], Dir: dataplane.Egress})
				out.ECMPPairsTotal++
				rho, p := m.Rho[ia][ib], m.P[ia][ib]
				if p < alpha && rho > 0 {
					out.ECMPPairsPositive++
				}
				if p < alpha && rho < 0 {
					out.ECMPPairsNegative++
				}
			}
		}
	}
	return out
}

func idxOf(units []dataplane.UnitID, u dataplane.UnitID) int {
	for i, v := range units {
		if v == u {
			return i
		}
	}
	panic("unit not in series")
}

// Table renders the comparison in the paper's terms.
func (r *Fig13Result) Table() *Table {
	t := &Table{
		Title:  "Figure 13: pairwise egress-port correlations under GraphX",
		Header: []string{"Metric", "Snapshots", "Polling"},
	}
	row := func(name string, f func(Fig13Method) string) {
		t.Rows = append(t.Rows, []string{name, f(r.Snapshot), f(r.Polling)})
	}
	row("significant pairs (p < alpha)", func(m Fig13Method) string {
		return fmt.Sprintf("%d", m.Significant)
	})
	row("master port uncorrelated (truth)", func(m Fig13Method) string {
		return fmt.Sprintf("%v", m.MasterPortClean)
	})
	row("ECMP uplink pairs positive", func(m Fig13Method) string {
		return fmt.Sprintf("%d/%d", m.ECMPPairsPositive, m.ECMPPairsTotal)
	})
	row("ECMP uplink pairs negative (wrong)", func(m Fig13Method) string {
		return fmt.Sprintf("%d/%d", m.ECMPPairsNegative, m.ECMPPairsTotal)
	})
	if r.Polling.Significant > 0 {
		gain := float64(r.Snapshot.Significant-r.Polling.Significant) / float64(r.Polling.Significant) * 100
		t.Notes = append(t.Notes, fmt.Sprintf(
			"snapshots found %.0f%% more significant pairs than polling (paper: 43%% more)", gain))
	}
	return t
}
