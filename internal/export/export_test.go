package export

import (
	"bytes"
	"encoding/csv"
	"testing"

	"speedlight/internal/control"
	"speedlight/internal/dataplane"
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

func TestEmptyInputs(t *testing.T) {
	var buf bytes.Buffer
	if err := SnapshotsCSV(&buf, nil); err != nil {
		t.Fatal(err)
	}
}
