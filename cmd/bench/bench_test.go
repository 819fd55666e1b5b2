package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"

	"speedlight/internal/control"
	"speedlight/internal/dataplane"
	"speedlight/internal/observer"
	"speedlight/internal/packet"
	"speedlight/internal/snapstore"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestBenchmarkJSONMatchesSpec holds BENCHMARK.json equal to what the
// metric table derives (`bench -spec`), so the file the driver reads
// and the names the program emits cannot drift apart.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var onDisk benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&onDisk); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if want := benchmarkSpec(); !reflect.DeepEqual(onDisk, want) {
		t.Errorf("BENCHMARK.json differs from the spec table; regenerate it with `go run ./cmd/bench -spec`")
	}
	for _, w := range onDisk.Workloads {
		if !nameRE.MatchString(w.Name) || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: bad name or why", w.Name)
		}
	}
	setup := false
	for _, m := range onDisk.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
	if n := len(onDisk.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per_layer metrics, want 1..128", n)
	}
}

// TestSmoke runs all five workloads, traced, at smoke scale and checks
// the plumbing: outputs verify, and every metric of the spec table is
// emitted with its unit on exactly the workloads the table marks.
func TestSmoke(t *testing.T) {
	rep, err := runSuite(options{seed: 1, seconds: 1, trace: true, smoke: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Workloads) != len(workloadSpecs) {
		t.Fatalf("ran %d workloads, want %d", len(rep.Workloads), len(workloadSpecs))
	}
	bench := benchmarkSpec()
	for i, res := range rep.Workloads {
		w := res.Workload
		if w != workloadSpecs[i].Name {
			t.Fatalf("workload %d is %s, want %s", i, w, workloadSpecs[i].Name)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s: correct=%t attempted=%d failed=%d: %v", w, res.Correct, res.Attempted, res.Failed, res.Failures)
		}
		for _, sp := range specs {
			if !nameRE.MatchString(sp.Name) {
				t.Errorf("metric name %q does not match %v", sp.Name, nameRE)
			}
			m, emitted := res.Metrics[sp.Name]
			want := sp.on(w)
			if sp.Name == "sim.shard_speedup" && shardCount() > runtime.GOMAXPROCS(0) {
				want = false // omitted when shards outnumber CPUs
			}
			if emitted != want {
				t.Errorf("%s: %s emitted=%t, spec table says %t", w, sp.Name, emitted, want)
			}
			if emitted && (m.Unit != sp.Unit || m.N < 1) {
				t.Errorf("%s: %s has unit %q n %d, want unit %q", w, sp.Name, m.Unit, m.N, sp.Unit)
			}
		}
		for name := range res.Metrics {
			if _, ok := specByName[name]; !ok {
				t.Errorf("%s: emitted %s, which the spec table lacks", w, name)
			}
		}
		// The driver's result line: exactly the four keys, every
		// end_to_end metric untraced (none of them zero), every
		// per_layer metric traced.
		for _, traced := range []bool{false, true} {
			var line struct {
				Correct   *bool `json:"correct"`
				Attempted *int64
				Failed    *int64
				Metrics   map[string]struct {
					Value *float64
					Unit  string
				}
			}
			dec := json.NewDecoder(strings.NewReader(resultLine(res, traced)))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&line); err != nil {
				t.Fatalf("%s: result line: %v", w, err)
			}
			if line.Correct == nil || line.Attempted == nil || line.Failed == nil {
				t.Errorf("%s: result line lacks a key", w)
			}
			want := map[string]string{}
			if traced {
				for _, m := range bench.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range bench.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			if len(line.Metrics) != len(want) {
				t.Errorf("%s traced=%t: result line has %d metrics, want %d", w, traced, len(line.Metrics), len(want))
			}
			for name, unit := range want {
				got, ok := line.Metrics[name]
				if !ok || got.Value == nil || got.Unit != unit {
					t.Errorf("%s traced=%t: result line lacks %s in %s", w, traced, name, unit)
				} else if !traced && *got.Value == 0 {
					t.Errorf("%s: end-to-end metric %s is zero", w, name)
				}
			}
		}
		if len(res.Spans) == 0 {
			t.Errorf("%s: traced run recorded no spans", w)
		}
		for _, s := range res.Spans {
			if s.EndNs < s.StartNs || s.Parent >= s.ID {
				t.Errorf("%s: malformed span %+v", w, s)
				break
			}
		}
	}
	// Same seed, same sizes: a set compared with itself is acceptable.
	var out bytes.Buffer
	if !compareReports(&out, rep, rep) {
		t.Errorf("a report does not compare equal to itself:\n%s", out.String())
	}
}

// TestVerificationFailuresFail checks that each output check the
// workloads rely on counts a failure when its output is wrong, and
// that a failure makes the run incorrect.
func TestVerificationFailuresFail(t *testing.T) {
	r := newRun(options{seed: 1, smoke: true}, nil)
	r.setDigest("a")
	r.setDigest("a")
	r.setFired(10)
	r.setFired(10)
	if r.failed != 0 {
		t.Fatalf("equal repetitions counted %d failures", r.failed)
	}
	r.setDigest("b")
	if r.failed != 1 {
		t.Errorf("a differing digest counted %d failures, want 1", r.failed)
	}
	r.setFired(11)
	if r.failed != 2 {
		t.Errorf("a differing fired-event count counted %d failures, want 2", r.failed)
	}
	r.add("virt_epoch_latency_us_p50", 5050)
	r.add("virt_epoch_latency_us_p50", 5051)
	r.metrics(true)
	if r.failed != 3 {
		t.Errorf("a virtual-time metric that differs across repetitions counted %d failures, want 3", r.failed)
	}

	u := dataplane.UnitID{Node: 1, Port: 2, Dir: dataplane.Egress}
	snap := func(id packet.SeqID, v uint64) *observer.GlobalSnapshot {
		return &observer.GlobalSnapshot{ID: id, Consistent: true, Results: map[dataplane.UnitID]control.Result{
			u: {Unit: u, SnapshotID: id, Value: v, Consistent: true},
		}}
	}
	store := snapstore.New(snapstore.Config{})
	a, b := snap(1, 7), snap(2, 9)
	store.Ingest(a, 0)
	store.Ingest(b, 0)
	view := store.View()
	st, err := view.State(2)
	if err != nil {
		t.Fatal(err)
	}
	if !stateMatches(st, b) {
		t.Error("a correct State answer fails the check")
	}
	wrong := snap(2, 8)
	if stateMatches(st, wrong) || stateMatches(st, a) {
		t.Error("a State answer passes against a snapshot with other values")
	}
	diff, err := view.Diff(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !diffMatches(diff, a, b) {
		t.Error("a correct Diff answer fails the check")
	}
	if diffMatches(diff, a, a) || diffMatches(nil, a, b) {
		t.Error("a wrong Diff answer passes the check")
	}
}

// TestSliceRates checks that the host-time rates are sampled per slice
// and divided by the slice's host speed, that a slice counts only
// verified snapshots, and that the pacer pairs a slice with the
// reference batches on either side of it.
func TestSliceRates(t *testing.T) {
	r := newRun(options{seed: 1, smoke: true}, nil)
	good := []bool{true, false, true, true}
	slices := countGood([]slice{
		{wall: time.Second, speed: 1, ops: 100, snapLo: 0, snapHi: 2},
		{wall: time.Second, speed: 0.5, ops: 300, snapLo: 2, snapHi: 4}, // a host at half speed: the rates double
		{wall: 2 * time.Second, speed: 1, ops: 400, snapLo: 4, snapHi: 4},
	}, good)
	r.addSlices(slices, "ops_per_s", "snapshots_per_s")
	m := r.metrics(false)
	if got := m["ops_per_s"]; got.Median != 200 || got.Min != 100 || got.Max != 600 || got.N != 3 {
		t.Errorf("ops_per_s = %+v, want 100, 600, 200", got.summary)
	}
	if got := m["snapshots_per_s"]; got.Max != 4 || got.Median != 1 || got.Min != 0 {
		t.Errorf("snapshots_per_s = %+v, want 1, 4, 0 verified snapshots per second", got.summary)
	}

	p := r.newPacer()
	first := p.prev
	sl := p.mark(slice{wall: time.Second})
	if first <= 0 || p.prev <= 0 || sl.speed != (first+p.prev)/2 {
		t.Errorf("slice speed %v, batches %v and %v", sl.speed, first, p.prev)
	}
	if p.n != 2 || p.speed() != sl.speed || p.took <= 0 || len(r.hostSpeeds) != 2 {
		t.Errorf("pacer after two batches: %+v, run has %d speeds", p, len(r.hostSpeeds))
	}
}

func TestJudge(t *testing.T) {
	sp := specByName["ops_per_s"] // higher is better, bound 25%
	tight := func(v float64) metric {
		return metric{summary: summary{Median: v, Min: v * 0.99, Max: v * 1.01, Q1: v * 0.995, Q3: v * 1.005, N: 9}}
	}
	loose := func(v float64) metric {
		return metric{summary: summary{Median: v, Min: v * 0.7, Max: v * 1.3, Q1: v * 0.85, Q3: v * 1.15, N: 9}}
	}
	for _, c := range []struct {
		name string
		a, b metric
		want string
	}{
		{"same", tight(100), tight(101), vOK},
		{"slower past the bound", tight(100), tight(70), vRegression},
		{"faster past the bound", tight(100), tight(140), vBetter},
		{"spread wider than the bound", loose(100), loose(85), vUnresolved},
		{"wide spread but every run better", loose(100), tight(200), vBetter},
	} {
		if got, _ := judge(sp, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

// TestCompareExact checks that compare mode demands exact equality of
// virtual-time metrics on the deterministic workloads.
func TestCompareExact(t *testing.T) {
	mk := func(lat float64) *report {
		return &report{Env: env{Seed: 1}, Workloads: []*result{{
			Workload: wStorm,
			Metrics: map[string]metric{
				"virt_epoch_latency_us_p50": {Unit: "us", summary: summary{Median: lat, Min: lat, Max: lat, N: 3}},
			},
		}}}
	}
	var out bytes.Buffer
	if !compareReports(&out, mk(5050), mk(5050)) {
		t.Errorf("equal virtual metrics rejected:\n%s", out.String())
	}
	if compareReports(&out, mk(5050), mk(5050.001)) {
		t.Error("a virtual-time metric that moved was accepted")
	}
}
