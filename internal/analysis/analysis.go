// Package analysis turns sequences of assembled global snapshots into
// the whole-network answers the paper's Section 2.2 motivates: load
// imbalance across port groups, aligned per-port series to correlate,
// and concurrency of load.
//
// Everything operates on observer.GlobalSnapshot values, so the same
// analyses run over the simulator, the live goroutine runtime, and the
// UDP deployment.
package analysis

import (
	"sort"

	"speedlight/internal/dataplane"
	"speedlight/internal/observer"
	"speedlight/internal/stats"
)

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

// UnitSeries extracts, for each unit, its consistent snapshot values in
// schedule order. Snapshots missing a consistent value for any of the
// units are skipped entirely, keeping the series aligned.
func UnitSeries(snaps []*observer.GlobalSnapshot, units []dataplane.UnitID) [][]float64 {
	series := make([][]float64, len(units))
	for _, g := range bySchedule(snaps) {
		row := make([]float64, len(units))
		ok := true
		for i, u := range units {
			v, have := g.Value(u)
			if !have {
				ok = false
				break
			}
			row[i] = float64(v)
		}
		if !ok {
			continue
		}
		for i := range units {
			series[i] = append(series[i], row[i])
		}
	}
	return series
}

// ImbalanceSamples computes, for every snapshot and every group of
// units, the population standard deviation of the group's values scaled
// by scale (e.g. 1e-3 for ns -> µs) — the Section 8.3 load-balance
// analysis. Groups with any missing value at an instant are skipped at
// that instant. Callers pool the samples across runs before building a
// distribution.
func ImbalanceSamples(snaps []*observer.GlobalSnapshot, groups [][]dataplane.UnitID, scale float64) []float64 {
	var out []float64
	for _, g := range bySchedule(snaps) {
		for _, group := range groups {
			xs := make([]float64, 0, len(group))
			for _, u := range group {
				v, ok := g.Value(u)
				if !ok {
					break
				}
				xs = append(xs, float64(v)*scale)
			}
			if len(xs) == len(group) && len(xs) > 1 {
				out = append(out, stats.PopStddev(xs))
			}
		}
	}
	return out
}

// ConcurrentLoad returns, per snapshot, how many of the given units
// were at or above the threshold in the same instant — the "how much of
// my network is concurrently loaded?" question of Section 1.
func ConcurrentLoad(snaps []*observer.GlobalSnapshot, units []dataplane.UnitID, threshold uint64) *stats.CDF {
	var out []float64
	for _, g := range bySchedule(snaps) {
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
