// Package export flattens snapshot campaign results — global snapshots
// and invariant standings — to CSV and JSON rows, for analysis outside
// the repository (spreadsheets, gnuplot, pandas). Artifacts with a
// schema of their own are written by the package that owns it: the
// snapshot history by snapstore, the audit report by audit, figures and
// tables by experiments.
package export

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"speedlight/internal/dataplane"
	"speedlight/internal/invariant"
	"speedlight/internal/observer"
	"speedlight/internal/packet"
)

// SnapshotRow is one unit's value in one snapshot, flattened for
// serialization.
type SnapshotRow struct {
	SnapshotID packet.SeqID `json:"snapshot_id"`
	Switch     int          `json:"switch"`
	Port       int          `json:"port"`
	Direction  string       `json:"direction"`
	Value      uint64       `json:"value"`
	Consistent bool         `json:"consistent"`
	// ScheduledNs and CompletedNs bracket the snapshot in virtual time.
	ScheduledNs int64 `json:"scheduled_ns"`
	CompletedNs int64 `json:"completed_ns"`
}

// Rows flattens global snapshots into deterministic, sorted rows.
func Rows(snaps []*observer.GlobalSnapshot) []SnapshotRow {
	var rows []SnapshotRow
	for _, g := range snaps {
		units := make([]dataplane.UnitID, 0, len(g.Results))
		for u := range g.Results {
			units = append(units, u)
		}
		sort.Slice(units, func(a, b int) bool {
			x, y := units[a], units[b]
			if x.Node != y.Node {
				return x.Node < y.Node
			}
			if x.Port != y.Port {
				return x.Port < y.Port
			}
			return x.Dir < y.Dir
		})
		for _, u := range units {
			res := g.Results[u]
			rows = append(rows, SnapshotRow{
				SnapshotID:  g.ID,
				Switch:      int(u.Node),
				Port:        u.Port,
				Direction:   u.Dir.String(),
				Value:       res.Value,
				Consistent:  res.Consistent,
				ScheduledNs: int64(g.ScheduledAt),
				CompletedNs: int64(g.CompletedAt),
			})
		}
	}
	return rows
}

// SnapshotsCSV writes flattened snapshots as CSV with a header row.
func SnapshotsCSV(w io.Writer, snaps []*observer.GlobalSnapshot) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{
		"snapshot_id", "switch", "port", "direction", "value",
		"consistent", "scheduled_ns", "completed_ns",
	}); err != nil {
		return err
	}
	for _, r := range Rows(snaps) {
		if err := cw.Write([]string{
			fmt.Sprint(r.SnapshotID), fmt.Sprint(r.Switch), fmt.Sprint(r.Port),
			r.Direction, fmt.Sprint(r.Value), fmt.Sprint(r.Consistent),
			fmt.Sprint(r.ScheduledNs), fmt.Sprint(r.CompletedNs),
		}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// SnapshotsJSON writes flattened snapshots as a JSON array.
func SnapshotsJSON(w io.Writer, snaps []*observer.GlobalSnapshot) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(Rows(snaps))
}

// InvariantsCSV writes an invariant engine's standing and violation
// history as CSV: one "status" row per registered invariant followed
// by one "violation" row per retained violation, oldest first.
func InvariantsCSV(w io.Writer, eng *invariant.Engine) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{
		"kind", "invariant", "epoch", "seq", "evals", "violations", "ok", "detail",
	}); err != nil {
		return err
	}
	for _, st := range eng.Status() {
		if err := cw.Write([]string{
			"status", st.Name, fmt.Sprint(st.LastEpoch), "",
			fmt.Sprint(st.Evals), fmt.Sprint(st.Violations),
			fmt.Sprint(st.OK), st.Detail,
		}); err != nil {
			return err
		}
	}
	for _, v := range eng.Violations() {
		if err := cw.Write([]string{
			"violation", v.Invariant, fmt.Sprint(v.Epoch), fmt.Sprint(v.Seq),
			"", "", "false", v.Detail,
		}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
