package epochtrace

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"speedlight/internal/journal"
)

// twoSwitchJournal builds a synthetic two-switch campaign: epoch 1
// completes through switch 1 (the straggler), epoch 2 times out with
// switch 1 excluded and no results accepted.
func twoSwitchJournal() []journal.Event {
	return []journal.Event{
		journal.ObsBegin(1000, 1),
		journal.Initiate(2000, 0, 1, false),
		journal.Initiate(2500, 1, 1, false),
		journal.Record(3000, 0, 0, journal.DirIngress, -1, 0, 1, 1),
		journal.NotifGenerated(3200, 0, 0, journal.DirIngress, 1),
		journal.MarkerReceived(3400, 1, 1, 2, 1),
		journal.Record(3500, 1, 1, journal.DirIngress, 2, 0, 1, 1),
		journal.Absorb(3550, 1, 1, journal.DirIngress, 2, 0, 1),
		journal.NotifGenerated(3600, 1, 1, journal.DirIngress, 1),
		journal.NotifService(4000, 0, 0, journal.DirIngress, 1),
		journal.Result(4100, 0, 0, journal.DirIngress, 1, 7, true),
		journal.ObsResult(5000, 0, 0, journal.DirIngress, 1, true),
		journal.NotifService(5600, 1, 1, journal.DirIngress, 1),
		journal.Result(5700, 1, 1, journal.DirIngress, 1, 9, true),
		journal.ObsResult(6500, 1, 1, journal.DirIngress, 1, true),
		journal.ObsComplete(7000, 1, true, 0),

		journal.ObsBegin(10000, 2),
		journal.Initiate(10500, 0, 2, false),
		journal.ObsRetry(12000, 2, 1),
		journal.ObsExclude(15000, 2, 1),
		journal.ObsComplete(20000, 2, false, 1),
	}
}

func TestBuildReconstructsWavefront(t *testing.T) {
	traces := Build(twoSwitchJournal())
	if len(traces) != 2 {
		t.Fatalf("got %d traces, want 2", len(traces))
	}
	tr := traces[0]
	if tr.ID != 1 || tr.BeginNs != 1000 || tr.EndNs != 7000 || !tr.Consistent {
		t.Fatalf("epoch 1 header wrong: %+v", tr)
	}
	if tr.SpreadNs != 500 {
		t.Errorf("spread = %d, want 500 (records at 3000 and 3500)", tr.SpreadNs)
	}
	if len(tr.Switches) != 2 {
		t.Fatalf("got %d switches, want 2", len(tr.Switches))
	}
	// Switch 0 touched first (initiate 2000), switch 1 second.
	if tr.Switches[0].Switch != 0 || tr.Switches[1].Switch != 1 {
		t.Fatalf("wavefront order wrong: %+v", tr.Switches)
	}
	s1 := tr.Switches[1]
	if s1.FirstTouchNs != 2500 || s1.Markers != 1 || s1.Records != 1 || s1.Absorbs != 1 {
		t.Errorf("switch 1 wavefront wrong: %+v", s1)
	}
	if s1.CPQueueNs != 2000 || s1.CPServiceNs != 100 {
		t.Errorf("switch 1 cp buckets = %d/%d, want 2000/100", s1.CPQueueNs, s1.CPServiceNs)
	}

	tr2 := traces[1]
	if tr2.ID != 2 || tr2.Consistent || tr2.Excluded != 1 || tr2.Retries != 1 {
		t.Fatalf("epoch 2 header wrong: %+v", tr2)
	}
}

func TestCriticalPathPartitionsEpoch(t *testing.T) {
	traces := Build(twoSwitchJournal())
	tr := traces[0]
	want := UnitRef{Switch: 1, Port: 1, Dir: journal.DirIngress}
	if tr.CriticalUnit != want {
		t.Fatalf("critical unit = %+v, want %+v", tr.CriticalUnit, want)
	}
	wantSegs := []struct {
		stage    string
		from, to int64
	}{
		{StageInitiation, 1000, 2500},
		{StageWavefront, 2500, 3500},
		{StageNotifEnqueue, 3500, 3600},
		{StageCPQueue, 3600, 5600},
		{StageCPService, 5600, 5700},
		{StageObserverWire, 5700, 6500},
		{StageFinalize, 6500, 7000},
	}
	if len(tr.Critical) != len(wantSegs) {
		t.Fatalf("got %d segments, want %d", len(tr.Critical), len(wantSegs))
	}
	for i, w := range wantSegs {
		g := tr.Critical[i]
		if g.Stage != w.stage || g.FromNs != w.from || g.ToNs != w.to {
			t.Errorf("segment %d = %s [%d,%d], want %s [%d,%d]",
				i, g.Stage, g.FromNs, g.ToNs, w.stage, w.from, w.to)
		}
	}
	if got := tr.Critical[1].Channel; got != 2 {
		t.Errorf("wavefront channel = %d, want 2", got)
	}

	// The contiguity invariant: segments sum to completion latency
	// exactly, for every epoch including the degenerate excluded one.
	for _, tr := range traces {
		if tr.CriticalSumNs() != tr.DurationNs() {
			t.Errorf("epoch %d: critical sum %d != duration %d",
				tr.ID, tr.CriticalSumNs(), tr.DurationNs())
		}
	}
	if traces[1].CriticalUnit.Switch != journal.ObserverNode {
		t.Errorf("excluded epoch critical unit = %+v, want observer sentinel",
			traces[1].CriticalUnit)
	}
}

func TestRollupAttributesStraggler(t *testing.T) {
	traces := Build(twoSwitchJournal())
	r := NewRollup(traces)
	if r.Epochs != 2 || r.Consistent != 1 {
		t.Fatalf("rollup header wrong: %+v", r)
	}
	if r.MaxEpoch != 2 || r.MaxNs != 10000 {
		t.Errorf("max epoch = %d (%d ns), want epoch 2 (10000 ns)", r.MaxEpoch, r.MaxNs)
	}
	top := r.Top(1)
	if len(top) != 1 || top[0].Switch != 1 {
		t.Fatalf("top contributor = %+v, want switch 1", top)
	}
	if top[0].CPQueueNs != 2000 || top[0].WavefrontNs != 1000 {
		t.Errorf("switch 1 buckets wrong: %+v", top[0])
	}
	var stageSum int64
	for _, st := range r.Stages {
		stageSum += st.TotalNs
	}
	if stageSum != r.TotalNs {
		t.Errorf("stage totals sum %d != total %d", stageSum, r.TotalNs)
	}
	if len(r.Queues) == 0 || r.Queues[0].Switch != 1 {
		t.Errorf("queue buckets wrong: %+v", r.Queues)
	}
	if len(r.Links) == 0 || r.Links[0].Channel != 2 {
		t.Errorf("link buckets wrong: %+v", r.Links)
	}
}

func TestBuildDeterministic(t *testing.T) {
	a, b := Build(twoSwitchJournal()), Build(twoSwitchJournal())
	if !reflect.DeepEqual(a, b) {
		t.Fatal("Build not deterministic across runs")
	}
	var ba, bb bytes.Buffer
	if err := WriteJSONL(&ba, a); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSONL(&bb, b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ba.Bytes(), bb.Bytes()) {
		t.Fatal("JSONL serialization not byte-identical")
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	in := Build(twoSwitchJournal())
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch:\nin:  %+v\nout: %+v", in[0], out[0])
	}
}

func TestChromeTraceWellFormed(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, Build(twoSwitchJournal())); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("chrome trace is not a JSON array: %v", err)
	}
	var criticals int
	for _, ev := range events {
		if ev["cat"] == "critical" {
			criticals++
		}
	}
	if criticals == 0 {
		t.Fatal("no critical-path events in chrome trace")
	}
}

func TestHTTPHandler(t *testing.T) {
	traces := Build(twoSwitchJournal())
	blocking := []ShardBlocking{{Waiter: 1, Holdup: 0, WaitNs: 420}}
	h := HTTPHandler(func() []*EpochTrace { return traces },
		func() []ShardBlocking { return blocking })

	get := func(url string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
		return rec
	}

	if rec := get("/trace/epoch"); rec.Code != 200 {
		t.Fatalf("listing: code %d", rec.Code)
	} else {
		var sums []map[string]any
		if err := json.Unmarshal(rec.Body.Bytes(), &sums); err != nil || len(sums) != 2 {
			t.Fatalf("listing: %v (%d entries)", err, len(sums))
		}
	}
	if rec := get("/trace/epoch?n=1"); rec.Code != 200 ||
		!strings.Contains(rec.Body.String(), `"critical"`) {
		t.Fatalf("epoch fetch: code %d body %.80s", rec.Code, rec.Body.String())
	}
	if rec := get("/trace/epoch?n=99"); rec.Code != 404 {
		t.Fatalf("missing epoch: code %d, want 404", rec.Code)
	}
	if rec := get("/trace/epoch?n=bogus"); rec.Code != 400 {
		t.Fatalf("bad epoch: code %d, want 400", rec.Code)
	}
	if rec := get("/trace/epoch?n=1&format=chrome"); rec.Code != 200 ||
		!strings.HasPrefix(rec.Body.String(), "[") {
		t.Fatalf("chrome fetch: code %d", rec.Code)
	}
	if all, short := get("/trace/epoch?format=chrome"), get("/trace"); short.Code != 200 ||
		short.Body.String() != all.Body.String() {
		t.Fatalf("/trace: code %d, body differs from /trace/epoch?format=chrome", short.Code)
	}
	if rec := get("/trace/epoch?format=jsonl"); rec.Code != 200 {
		t.Fatalf("jsonl fetch: code %d", rec.Code)
	}
	if rec := get("/trace/critical"); rec.Code != 200 ||
		!strings.Contains(rec.Body.String(), `"stages"`) {
		t.Fatalf("critical rollup: code %d body %.80s", rec.Code, rec.Body.String())
	} else {
		var roll Rollup
		if err := json.Unmarshal(rec.Body.Bytes(), &roll); err != nil {
			t.Fatalf("critical rollup decode: %v", err)
		}
		if len(roll.Blocking) != 1 || roll.Blocking[0] != blocking[0] {
			t.Fatalf("critical rollup blocking = %+v, want %+v", roll.Blocking, blocking)
		}
	}

	hNil := HTTPHandler(nil, nil)
	rec := httptest.NewRecorder()
	hNil.ServeHTTP(rec, httptest.NewRequest("GET", "/trace/epoch", nil))
	if rec.Code != 503 {
		t.Fatalf("nil src: code %d, want 503", rec.Code)
	}
}
