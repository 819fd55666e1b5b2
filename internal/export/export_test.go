package export

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"strings"
	"testing"

	"speedlight/internal/audit"
	"speedlight/internal/control"
	"speedlight/internal/dataplane"
	"speedlight/internal/experiments"
	"speedlight/internal/journal"
	"speedlight/internal/observer"
)

func sampleSnaps() []*observer.GlobalSnapshot {
	return []*observer.GlobalSnapshot{
		{
			ID: 7,
			Results: map[dataplane.UnitID]control.Result{
				{Node: 1, Port: 0, Dir: dataplane.Egress}:  {Value: 20, Consistent: true},
				{Node: 0, Port: 2, Dir: dataplane.Ingress}: {Value: 10, Consistent: true},
				{Node: 0, Port: 1, Dir: dataplane.Ingress}: {Value: 5, Consistent: false},
			},
			Consistent:  false,
			ScheduledAt: 1000,
			CompletedAt: 2000,
		},
	}
}

func TestRowsSortedAndComplete(t *testing.T) {
	rows := Rows(sampleSnaps())
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Sorted by switch, port, direction.
	if rows[0].Switch != 0 || rows[0].Port != 1 {
		t.Errorf("first row %+v", rows[0])
	}
	if rows[2].Switch != 1 {
		t.Errorf("last row %+v", rows[2])
	}
	if rows[0].Consistent || !rows[1].Consistent {
		t.Error("consistency flags wrong")
	}
	if rows[0].ScheduledNs != 1000 || rows[0].CompletedNs != 2000 {
		t.Error("timestamps wrong")
	}
}

func TestSnapshotsCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := SnapshotsCSV(&buf, sampleSnaps()); err != nil {
		t.Fatal(err)
	}
	records, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 4 { // header + 3 rows
		t.Fatalf("records = %d", len(records))
	}
	if records[0][0] != "snapshot_id" {
		t.Error("header missing")
	}
	if records[3][4] != "20" {
		t.Errorf("value cell = %q", records[3][4])
	}
}

func TestSnapshotsJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := SnapshotsJSON(&buf, sampleSnaps()); err != nil {
		t.Fatal(err)
	}
	var rows []SnapshotRow
	if err := json.Unmarshal(buf.Bytes(), &rows); err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[2].Value != 20 || rows[2].Direction != "egress" {
		t.Errorf("row = %+v", rows[2])
	}
}

func TestFigureCSV(t *testing.T) {
	f := &experiments.Figure{
		XLabel: "x", YLabel: "y",
		Series: []experiments.Series{
			{Name: "a", Points: []experiments.Point{{X: 1, Y: 2}, {X: 3, Y: 4}}},
			{Name: "b", Points: []experiments.Point{{X: 5, Y: 6}}},
		},
	}
	var buf bytes.Buffer
	if err := FigureCSV(&buf, f); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"series,x,y", "a,1,2", "a,3,4", "b,5,6"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestTableCSV(t *testing.T) {
	tb := &experiments.Table{
		Header: []string{"k", "v"},
		Rows:   [][]string{{"a", "1"}, {"b", "2"}},
	}
	var buf bytes.Buffer
	if err := TableCSV(&buf, tb); err != nil {
		t.Fatal(err)
	}
	records, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 3 || records[1][1] != "1" {
		t.Errorf("records = %v", records)
	}
}

func TestEmptyInputs(t *testing.T) {
	var buf bytes.Buffer
	if err := SnapshotsCSV(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if err := SnapshotsJSON(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if err := FigureCSV(&buf, &experiments.Figure{}); err != nil {
		t.Fatal(err)
	}
}

func sampleJournal() []journal.Event {
	evs := []journal.Event{
		journal.Config(256, true, true),
		journal.Register(0, 1, journal.DirIngress),
		journal.ObsBegin(1000, 1),
		journal.Record(1500, 0, 1, journal.DirIngress, 4, 0, 1, 1),
		journal.Absorb(1600, 0, 1, journal.DirIngress, 4, 0, 1),
		journal.NotifDropped(1700, 0, 1, journal.DirIngress, 1),
		journal.ObsComplete(2000, 1, true, 0),
	}
	for i := range evs {
		evs[i].Seq = uint64(i + 1)
	}
	return evs
}

func TestAuditExports(t *testing.T) {
	rep := audit.Run(sampleJournal(), audit.Config{})
	var js bytes.Buffer
	if err := AuditJSON(&js, rep); err != nil {
		t.Fatal(err)
	}
	var back audit.Report
	if err := json.Unmarshal(js.Bytes(), &back); err != nil {
		t.Fatalf("AuditJSON output does not parse: %v", err)
	}
	if len(back.Verdicts) != len(rep.Verdicts) {
		t.Fatalf("verdicts lost in JSON: got %d want %d", len(back.Verdicts), len(rep.Verdicts))
	}
}
