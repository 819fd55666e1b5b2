package export

import (
	"bytes"
	"encoding/csv"
	"testing"

	"speedlight/internal/dataplane"
	"speedlight/internal/invariant"
	"speedlight/internal/snapstore"
)

func TestInvariantsCSV(t *testing.T) {
	s := snapstore.New(snapstore.Config{})
	eng := invariant.New(invariant.Config{})
	u := dataplane.UnitID{Node: 0, Port: 1, Dir: dataplane.Ingress}
	eng.Register(invariant.Bound("headroom", []dataplane.UnitID{u}, 0, 0))

	snaps := sampleSnaps()
	snaps[0].Consistent = true
	ep := s.Ingest(snaps[0], 0)
	eng.Eval(s.View(), ep)

	var buf bytes.Buffer
	if err := InvariantsCSV(&buf, eng); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 { // header + 1 status + 1 violation
		t.Fatalf("rows = %d, want 3:\n%v", len(rows), rows)
	}
	if rows[0][0] != "kind" || rows[0][1] != "invariant" {
		t.Fatalf("header = %v", rows[0])
	}
	if rows[1][0] != "status" || rows[1][1] != "headroom" || rows[1][6] != "false" {
		t.Fatalf("status row = %v", rows[1])
	}
	if rows[2][0] != "violation" || rows[2][2] != "7" || rows[2][7] == "" {
		t.Fatalf("violation row = %v", rows[2])
	}
}
