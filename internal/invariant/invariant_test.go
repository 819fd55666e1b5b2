package invariant_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"speedlight/internal/control"
	"speedlight/internal/dataplane"
	"speedlight/internal/invariant"
	"speedlight/internal/observer"
	"speedlight/internal/packet"
	"speedlight/internal/snapstore"
	"speedlight/internal/telemetry"
	"speedlight/internal/topology"
)

func unit(node, port int, dir dataplane.Direction) dataplane.UnitID {
	return dataplane.UnitID{Node: topology.NodeID(node), Port: port, Dir: dir}
}

// seal drives one consistent epoch into the store and returns it.
func seal(s *snapstore.Store, id packet.SeqID, values map[dataplane.UnitID]uint64) *snapstore.Epoch {
	g := &observer.GlobalSnapshot{
		ID:         id,
		Results:    make(map[dataplane.UnitID]control.Result, len(values)),
		Consistent: true,
	}
	for u, v := range values {
		g.Results[u] = control.Result{Unit: u, SnapshotID: id, Value: v, Consistent: true}
	}
	return s.Ingest(g, 0)
}

func TestOrderInvariant(t *testing.T) {
	s := snapstore.New(snapstore.Config{})
	before, after := unit(0, 0, dataplane.Ingress), unit(1, 0, dataplane.Ingress)
	var got []invariant.Violation
	e := invariant.New(invariant.Config{OnViolation: func(v invariant.Violation) { got = append(got, v) }})
	e.Register(invariant.Order("fib-order", before, after))

	ep := seal(s, 1, map[dataplane.UnitID]uint64{before: 2, after: 1}) // before leads: fine
	if v := e.Eval(s.View(), ep); v != nil {
		t.Fatalf("ordered cut flagged: %v", v)
	}
	ep = seal(s, 2, map[dataplane.UnitID]uint64{before: 1, after: 2}) // after leads: loop window
	v := e.Eval(s.View(), ep)
	if len(v) != 1 || v[0].Invariant != "fib-order" || v[0].Epoch != 2 {
		t.Fatalf("loop window not flagged: %v", v)
	}
	if len(got) != 1 {
		t.Fatalf("OnViolation fired %d times, want 1", len(got))
	}
}

func TestBoundInvariant(t *testing.T) {
	s := snapstore.New(snapstore.Config{})
	us := []dataplane.UnitID{unit(0, 4, dataplane.Egress), unit(0, 5, dataplane.Egress), unit(1, 4, dataplane.Egress)}
	e := invariant.New(invariant.Config{})
	e.Register(invariant.Bound("uplink-load", us, 10, 1))

	ep := seal(s, 1, map[dataplane.UnitID]uint64{us[0]: 15, us[1]: 3, us[2]: 3})
	if v := e.Eval(s.View(), ep); v != nil {
		t.Fatalf("one hot uplink flagged (max 1 allowed): %v", v)
	}
	ep = seal(s, 2, map[dataplane.UnitID]uint64{us[0]: 15, us[1]: 12, us[2]: 3})
	if v := e.Eval(s.View(), ep); len(v) != 1 {
		t.Fatalf("two concurrent hot uplinks not flagged: %v", v)
	}
}

func TestMonotoneInvariant(t *testing.T) {
	s := snapstore.New(snapstore.Config{})
	u := unit(0, 0, dataplane.Ingress)
	e := invariant.New(invariant.Config{})
	e.Register(invariant.Monotone("counters", []dataplane.UnitID{u}))

	ep := seal(s, 1, map[dataplane.UnitID]uint64{u: 10})
	if v := e.Eval(s.View(), ep); v != nil {
		t.Fatalf("first epoch flagged: %v", v)
	}
	ep = seal(s, 2, map[dataplane.UnitID]uint64{u: 20})
	if v := e.Eval(s.View(), ep); v != nil {
		t.Fatalf("increasing counter flagged: %v", v)
	}
	ep = seal(s, 3, map[dataplane.UnitID]uint64{u: 5})
	if v := e.Eval(s.View(), ep); len(v) != 1 {
		t.Fatalf("counter regression not flagged: %v", v)
	}
}

func TestInconsistentEpochSkipped(t *testing.T) {
	s := snapstore.New(snapstore.Config{})
	u := unit(0, 0, dataplane.Ingress)
	e := invariant.New(invariant.Config{})
	e.Register(invariant.Bound("b", []dataplane.UnitID{u}, 0, 0))

	g := &observer.GlobalSnapshot{
		ID:      1,
		Results: map[dataplane.UnitID]control.Result{u: {Unit: u, SnapshotID: 1, Value: 5, Consistent: true}},
		// Consistent: false — no causal guarantee, nothing to predicate on.
	}
	ep := s.Ingest(g, 0)
	if v := e.Eval(s.View(), ep); v != nil {
		t.Fatalf("inconsistent epoch evaluated: %v", v)
	}
	if st := e.Status(); st[0].Evals != 0 {
		t.Fatalf("evals = %d, want 0", st[0].Evals)
	}
}

func TestEngineStatusHistoryAndTelemetry(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := snapstore.New(snapstore.Config{})
	u := unit(0, 0, dataplane.Ingress)
	e := invariant.New(invariant.Config{History: 4, Registry: reg})
	e.Register(invariant.Bound("always-hot", []dataplane.UnitID{u}, 0, 0))

	for i := 1; i <= 6; i++ {
		ep := seal(s, packet.SeqID(i), map[dataplane.UnitID]uint64{u: uint64(i)})
		e.Eval(s.View(), ep)
	}
	st := e.Status()
	if st[0].Evals != 6 || st[0].Violations != 6 || st[0].OK {
		t.Fatalf("status = %+v", st[0])
	}
	hist := e.Violations()
	if len(hist) != 4 {
		t.Fatalf("history holds %d, want 4 (bounded)", len(hist))
	}
	if hist[0].Epoch != 3 || hist[3].Epoch != 6 {
		t.Fatalf("history window = [%d..%d], want [3..6]", hist[0].Epoch, hist[3].Epoch)
	}
	var evals, viols uint64
	for _, series := range reg.Gather() {
		switch series.Name {
		case "speedlight_invariant_evals_total":
			evals = series.Value
		case "speedlight_invariant_violations_total":
			viols = series.Value
		}
	}
	if evals != 6 || viols != 6 {
		t.Fatalf("telemetry evals=%d violations=%d, want 6/6", evals, viols)
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	e := invariant.New(invariant.Config{})
	e.Register(invariant.Bound("dup", nil, 0, 0))
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration should panic")
		}
	}()
	e.Register(invariant.Bound("dup", nil, 0, 0))
}

func TestHTTPHandler(t *testing.T) {
	s := snapstore.New(snapstore.Config{})
	u := unit(0, 0, dataplane.Ingress)
	e := invariant.New(invariant.Config{})
	e.Register(invariant.Bound("hot", []dataplane.UnitID{u}, 10, 0))
	ep := seal(s, 1, map[dataplane.UnitID]uint64{u: 50})
	e.Eval(s.View(), ep)

	rec := httptest.NewRecorder()
	invariant.HTTPHandler(e).ServeHTTP(rec, httptest.NewRequest("GET", "/invariants", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	var body struct {
		Invariants []map[string]any `json:"invariants"`
		History    []map[string]any `json:"history"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if len(body.Invariants) != 1 || body.Invariants[0]["name"] != "hot" || body.Invariants[0]["ok"] != false {
		t.Fatalf("invariants = %v", body.Invariants)
	}
	if len(body.History) != 1 || body.History[0]["epoch"].(float64) != 1 {
		t.Fatalf("history = %v", body.History)
	}

	// The exported wire types are the whole schema: decoding rejects a
	// field they do not declare, and re-encoding gives the same bytes.
	var wire invariant.ReportJSON
	dec := json.NewDecoder(bytes.NewReader(rec.Body.Bytes()))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&wire); err != nil {
		t.Fatalf("decoding into ReportJSON: %v", err)
	}
	var again bytes.Buffer
	enc := json.NewEncoder(&again)
	enc.SetIndent("", "  ")
	if err := enc.Encode(wire); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), rec.Body.Bytes()) {
		t.Fatalf("ReportJSON does not re-encode to the response:\n%s\nvs\n%s", again.Bytes(), rec.Body.Bytes())
	}
	if wire.Invariants[0].Evals != 1 || wire.Invariants[0].Violations != 1 || wire.History[0].Invariant != "hot" {
		t.Fatalf("wire = %+v", wire)
	}

	rec = httptest.NewRecorder()
	invariant.HTTPHandler(nil).ServeHTTP(rec, httptest.NewRequest("GET", "/invariants", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("nil engine: %d, want 503", rec.Code)
	}
}

func TestViolationString(t *testing.T) {
	v := invariant.Violation{Invariant: "x", Epoch: 7, Detail: "boom"}
	want := fmt.Sprintf("invariant x violated at epoch %d: boom", 7)
	if v.String() != want {
		t.Fatalf("String() = %q, want %q", v.String(), want)
	}
}
