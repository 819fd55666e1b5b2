package snapstore_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"speedlight/internal/control"
	"speedlight/internal/dataplane"
	"speedlight/internal/observer"
	"speedlight/internal/snapstore"
	"speedlight/internal/topology"
)

// roundTrip decodes a handler response through the exported wire type v
// points to, rejecting any field the type does not declare, and checks
// that re-encoding it the handler's way gives back the same bytes: a
// field added on one side only fails one way or the other.
func roundTrip(t *testing.T, body []byte, v any) {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		t.Fatalf("decoding into %T: %v\n%s", v, err, body)
	}
	var out bytes.Buffer
	enc := json.NewEncoder(&out)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), body) {
		t.Fatalf("%T does not re-encode to the response:\n%s\nvs\n%s", v, out.Bytes(), body)
	}
}

func get(t *testing.T, h http.Handler, target string) (*httptest.ResponseRecorder, map[string]any) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", target, nil))
	var body map[string]any
	if rec.Code == http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatalf("GET %s: bad JSON: %v\n%s", target, err, rec.Body.String())
		}
	}
	return rec, body
}

func TestHTTPHandler(t *testing.T) {
	s := snapstore.New(snapstore.Config{})
	u0, u1 := unit(0, 0, dataplane.Ingress), unit(0, 1, dataplane.Egress)
	seal(s, 5, map[dataplane.UnitID]uint64{u0: 10, u1: 20})
	seal(s, 6, map[dataplane.UnitID]uint64{u0: 10, u1: 33})

	h := snapstore.HTTPHandler(s.View)

	// List.
	rec, body := get(t, h, "/snapshots")
	if rec.Code != http.StatusOK {
		t.Fatalf("list: %d", rec.Code)
	}
	if n := body["retained"].(float64); n != 2 {
		t.Fatalf("retained = %v, want 2", n)
	}
	epochs := body["epochs"].([]any)
	first := epochs[0].(map[string]any)
	if first["epoch"].(float64) != 5 || first["base"] != true {
		t.Fatalf("first listed epoch = %v", first)
	}

	// State at epoch 6.
	rec, body = get(t, h, "/snapshots?epoch=6")
	if rec.Code != http.StatusOK {
		t.Fatalf("state: %d %s", rec.Code, rec.Body.String())
	}
	units := body["units"].([]any)
	if len(units) != 2 {
		t.Fatalf("state has %d units, want 2", len(units))
	}
	u := units[1].(map[string]any)
	if u["unit"] != u1.String() || u["value"].(float64) != 33 {
		t.Fatalf("unit[1] = %v, want %s=33", u, u1)
	}

	// Diff.
	rec, body = get(t, h, "/snapshots/diff?from=5&to=6")
	if rec.Code != http.StatusOK {
		t.Fatalf("diff: %d %s", rec.Code, rec.Body.String())
	}
	changed := body["changed"].([]any)
	if len(changed) != 1 {
		t.Fatalf("diff changed %d regs, want 1: %v", len(changed), changed)
	}
	c := changed[0].(map[string]any)
	if c["unit"] != u1.String() {
		t.Fatalf("changed unit = %v, want %s", c["unit"], u1)
	}
	if c["from"].(map[string]any)["value"].(float64) != 20 || c["to"].(map[string]any)["value"].(float64) != 33 {
		t.Fatalf("diff values = %v", c)
	}

	// The exported wire types are the whole schema, "excluded" included.
	s.Ingest(&observer.GlobalSnapshot{
		ID:       7,
		Results:  map[dataplane.UnitID]control.Result{u0: {Unit: u0, SnapshotID: 7, Value: 11, Consistent: true}},
		Excluded: []topology.NodeID{1},
	}, 42)
	rec, _ = get(t, h, "/snapshots")
	var list snapstore.ListJSON
	roundTrip(t, rec.Body.Bytes(), &list)
	if len(list.Epochs) != 3 || list.Epochs[2].SyncNS != 42 || len(list.Epochs[2].Excluded) != 1 {
		t.Fatalf("list = %+v", list)
	}
	rec, _ = get(t, h, "/snapshots?epoch=7")
	var state snapstore.StateJSON
	roundTrip(t, rec.Body.Bytes(), &state)
	if state.Epoch != 7 || len(state.Units) != 1 || state.Units[0].Value != 11 {
		t.Fatalf("state = %+v", state)
	}

	// Errors.
	if rec, _ := get(t, h, "/snapshots?epoch=99"); rec.Code != http.StatusNotFound {
		t.Fatalf("unknown epoch: %d, want 404", rec.Code)
	}
	if rec, _ := get(t, h, "/snapshots?epoch=bogus"); rec.Code != http.StatusBadRequest {
		t.Fatalf("bad epoch: %d, want 400", rec.Code)
	}
	if rec, _ := get(t, h, "/snapshots/diff?from=5"); rec.Code != http.StatusBadRequest {
		t.Fatalf("diff missing to: %d, want 400", rec.Code)
	}
	if rec, _ := get(t, h, "/snapshots/diff?from=5&to=99"); rec.Code != http.StatusNotFound {
		t.Fatalf("diff unknown epoch: %d, want 404", rec.Code)
	}
}

func TestHTTPHandlerNilSource(t *testing.T) {
	rec := httptest.NewRecorder()
	snapstore.HTTPHandler(nil).ServeHTTP(rec, httptest.NewRequest("GET", "/snapshots", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("nil source: %d, want 503", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "no snapshot store") {
		t.Fatalf("nil source body: %q", rec.Body.String())
	}
}

func TestSnapshotsJSONL(t *testing.T) {
	s := snapstore.New(snapstore.Config{})
	first := &observer.GlobalSnapshot{
		ID: 7,
		Results: map[dataplane.UnitID]control.Result{
			unit(1, 0, dataplane.Egress):  {Value: 20, Consistent: true},
			unit(0, 2, dataplane.Ingress): {Value: 10, Consistent: true},
			unit(0, 1, dataplane.Ingress): {Value: 5, Consistent: false},
		},
		ScheduledAt: 1000,
		CompletedAt: 2000,
	}
	s.Ingest(first, 0)
	second := *first
	second.ID = 8
	second.Consistent = true
	s.Ingest(&second, 0)

	var buf bytes.Buffer
	if err := s.View().WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("wrote %d lines, want 2:\n%s", len(lines), buf.String())
	}
	// A line is the ?epoch=N response, compact: same type, same keys.
	var line snapstore.StateJSON
	dec := json.NewDecoder(strings.NewReader(lines[0]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&line); err != nil {
		t.Fatalf("line 1: %v", err)
	}
	if line.Epoch != 7 || !line.Base {
		t.Fatalf("line 1 = %+v, want epoch 7 base", line)
	}
	if len(line.Units) != 3 {
		t.Fatalf("line 1 has %d units, want 3", len(line.Units))
	}
	// Dense unit order is the store's canonical (switch, port, dir)
	// order from Ingest.
	if line.Units[0].Unit != "sw0/p1/ingress" || line.Units[0].Value != 5 {
		t.Fatalf("first unit = %+v", line.Units[0])
	}
}

func TestSnapshotsJSONLEmptyView(t *testing.T) {
	var buf bytes.Buffer
	if err := snapstore.New(snapstore.Config{}).View().WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Fatalf("empty view wrote %q", buf.String())
	}
}
