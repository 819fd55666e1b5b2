package experiments

import (
	"sort"

	"speedlight/internal/dataplane"
	"speedlight/internal/observer"
	"speedlight/internal/stats"
)

// The whole-network answers Section 2.2 motivates, computed over a
// sequence of assembled global snapshots: load imbalance across port
// groups, aligned per-port series to correlate, and concurrency of load.

// bySchedule orders snapshots by their scheduling time (assembly order
// can differ when retries interleave).
func bySchedule(snaps []*observer.GlobalSnapshot) []*observer.GlobalSnapshot {
	out := make([]*observer.GlobalSnapshot, len(snaps))
	copy(out, snaps)
	sort.SliceStable(out, func(a, b int) bool {
		if out[a].ScheduledAt != out[b].ScheduledAt {
			return out[a].ScheduledAt < out[b].ScheduledAt
		}
		return out[a].ID < out[b].ID
	})
	return out
}

// unitSeries extracts, for each unit, its consistent snapshot values in
// schedule order. Snapshots missing a consistent value for any of the
// units are skipped entirely, keeping the series aligned.
func unitSeries(snaps []*observer.GlobalSnapshot, units []dataplane.UnitID) [][]float64 {
	series := make([][]float64, len(units))
	for _, g := range bySchedule(snaps) {
		row := make([]float64, 0, len(units))
		for _, u := range units {
			v, ok := g.Value(u)
			if !ok {
				break
			}
			row = append(row, float64(v))
		}
		if len(row) < len(units) {
			continue
		}
		for i, v := range row {
			series[i] = append(series[i], v)
		}
	}
	return series
}

// imbalanceSamples computes, for every snapshot and every group of
// units, the population standard deviation of the group's values scaled
// by scale (e.g. 1e-3 for ns -> µs) — the Section 8.3 load-balance
// analysis. Groups with any missing value at an instant are skipped at
// that instant. Callers pool the samples, in no particular order,
// across runs before building a distribution.
func imbalanceSamples(snaps []*observer.GlobalSnapshot, groups [][]dataplane.UnitID, scale float64) []float64 {
	var out []float64
	for _, g := range snaps {
		out = groupStddevs(out, groups, func(u dataplane.UnitID) (float64, bool) {
			v, ok := g.Value(u)
			return float64(v) * scale, ok
		})
	}
	return out
}

// groupStddevs appends to out the population standard deviation of each
// group's values, read through value, skipping a group with any unit
// missing.
func groupStddevs(out []float64, groups [][]dataplane.UnitID, value func(dataplane.UnitID) (float64, bool)) []float64 {
	for _, group := range groups {
		xs := make([]float64, 0, len(group))
		for _, u := range group {
			v, ok := value(u)
			if !ok {
				break
			}
			xs = append(xs, v)
		}
		if len(xs) == len(group) && len(xs) > 1 {
			out = append(out, stats.PopStddev(xs))
		}
	}
	return out
}

// concurrentLoad returns the distribution, over snapshots, of how many
// of the given units were at or above the threshold in the same instant
// — the "how much of my network is concurrently loaded?" question of
// Section 1.
func concurrentLoad(snaps []*observer.GlobalSnapshot, units []dataplane.UnitID, threshold uint64) *stats.CDF {
	var out []float64
	for _, g := range snaps {
		loaded := 0
		for _, u := range units {
			if v, ok := g.Value(u); ok && v >= threshold {
				loaded++
			}
		}
		out = append(out, float64(loaded))
	}
	return stats.NewCDF(out)
}
