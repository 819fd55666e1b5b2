// Package export serializes snapshot campaign results and experiment
// figures to CSV and JSON, for analysis outside the repository
// (spreadsheets, gnuplot, pandas).
package export

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"speedlight/internal/audit"
	"speedlight/internal/dataplane"
	"speedlight/internal/experiments"
	"speedlight/internal/invariant"
	"speedlight/internal/observer"
	"speedlight/internal/packet"
	"speedlight/internal/snapstore"
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

// FigureCSV writes an experiment figure's series as long-form CSV
// (series, x, y).
func FigureCSV(w io.Writer, f *experiments.Figure) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"series", f.XLabel, f.YLabel}); err != nil {
		return err
	}
	for _, s := range f.Series {
		for _, p := range s.Points {
			if err := cw.Write([]string{
				s.Name,
				fmt.Sprintf("%g", p.X),
				fmt.Sprintf("%g", p.Y),
			}); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// TableCSV writes an experiment table as CSV.
func TableCSV(w io.Writer, t *experiments.Table) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Header); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// epochLine is one sealed epoch's reconstructed cut on one JSONL line.
type epochLine struct {
	Epoch       uint64     `json:"epoch"`
	Seq         uint64     `json:"seq"`
	ScheduledNs int64      `json:"scheduled_ns"`
	CompletedNs int64      `json:"completed_ns"`
	SyncNs      int64      `json:"sync_ns"`
	Consistent  bool       `json:"consistent"`
	Base        bool       `json:"base"`
	Deltas      int        `json:"deltas"`
	Units       []unitLine `json:"units"`
}

type unitLine struct {
	Unit       string `json:"unit"`
	Value      uint64 `json:"value"`
	Consistent bool   `json:"consistent"`
}

// SnapshotsJSONL writes a snapshot-history view as JSON Lines: one
// line per retained epoch, each carrying its fully reconstructed cut
// in dense unit order. The view is immutable, so the export is a
// consistent point-in-time dump even while the store keeps sealing.
func SnapshotsJSONL(w io.Writer, v *snapstore.View) error {
	enc := json.NewEncoder(w)
	for _, e := range v.Epochs() {
		st, err := v.State(e.ID)
		if err != nil {
			return err
		}
		line := epochLine{
			Epoch:       uint64(e.ID),
			Seq:         e.Seq,
			ScheduledNs: int64(e.ScheduledAt),
			CompletedNs: int64(e.CompletedAt),
			SyncNs:      int64(e.Sync),
			Consistent:  e.Consistent,
			Base:        e.IsBase(),
			Deltas:      e.DeltaCount(),
			Units:       []unitLine{},
		}
		for i, r := range st.Regs {
			if !r.Present {
				continue
			}
			line.Units = append(line.Units, unitLine{
				Unit:       st.Units[i].String(),
				Value:      r.Value,
				Consistent: r.Consistent,
			})
		}
		if err := enc.Encode(line); err != nil {
			return err
		}
	}
	return nil
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

// AuditJSON writes an audit report as indented JSON.
func AuditJSON(w io.Writer, rep *audit.Report) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
