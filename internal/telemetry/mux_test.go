package telemetry

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"speedlight/internal/epochtrace"
	"speedlight/internal/journal"
)

// dataEndpoints are the mux paths backed by optional subsystems. The
// contract under test: every one of them is always mounted, answers 503
// "not attached" before its subsystem is wired, and never panics on any
// partial MuxConfig.
var dataEndpoints = []string{
	"/journal", "/audit", "/snapshots", "/snapshots/diff",
	"/invariants", "/trace", "/trace/epoch", "/trace/critical",
}

func muxGet(t *testing.T, mux *http.ServeMux, path string) int {
	t.Helper()
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	return rec.Code
}

func TestMuxDataEndpointsBeforeAttach(t *testing.T) {
	mux := NewMuxConfig(MuxConfig{})
	for _, path := range dataEndpoints {
		if code := muxGet(t, mux, path); code != http.StatusServiceUnavailable {
			t.Errorf("%s before attach = %d, want 503", path, code)
		}
	}
	// Unknown paths stay a plain 404 — /spans is not an endpoint.
	if code := muxGet(t, mux, "/spans"); code != http.StatusNotFound {
		t.Errorf("/spans = %d, want 404", code)
	}
}

func TestMuxHalfWiredConfigsNeverPanic(t *testing.T) {
	ok := http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
	// Every single-field config: the wired endpoint serves, the rest
	// answer 503, and building + serving never panics.
	configs := map[string]MuxConfig{
		"journal":    {Journal: ok},
		"audit":      {Audit: ok},
		"snapshots":  {Snapshots: ok},
		"invariants": {Invariants: ok},
		"epochtrace": {EpochTrace: ok},
	}
	served := map[string][]string{
		"journal":    {"/journal"},
		"audit":      {"/audit"},
		"snapshots":  {"/snapshots", "/snapshots/diff"},
		"invariants": {"/invariants"},
		"epochtrace": {"/trace", "/trace/epoch", "/trace/critical"},
	}
	for name, cfg := range configs {
		mux := NewMuxConfig(cfg)
		wired := map[string]bool{}
		for _, p := range served[name] {
			wired[p] = true
		}
		for _, path := range dataEndpoints {
			want := http.StatusServiceUnavailable
			if wired[path] {
				want = http.StatusOK
			}
			if code := muxGet(t, mux, path); code != want {
				t.Errorf("config %q: %s = %d, want %d", name, path, code, want)
			}
		}
	}
}

func TestMuxTraceSubpathsDistinctFromLifecycleTrace(t *testing.T) {
	// One handler backs all three trace paths: /trace is the lifecycle
	// view — every traced epoch as one Chrome trace, byte-identical to
	// /trace/epoch?format=chrome — and does not swallow its subpaths,
	// which keep serving the summary listing and the rollup.
	traces := epochtrace.Build([]journal.Event{
		journal.ObsBegin(100, 1),
		journal.Initiate(110, 0, 1, false),
		journal.ObsResult(200, 0, 0, journal.DirIngress, 1, true),
		journal.ObsComplete(300, 1, true, 0),
	})
	mux := NewMuxConfig(MuxConfig{
		EpochTrace: epochtrace.HTTPHandler(func() []*epochtrace.EpochTrace { return traces }, nil),
	})
	body := func(path string) string {
		t.Helper()
		code, out := probe(t, mux, path)
		if code != http.StatusOK {
			t.Fatalf("%s = %d, want 200", path, code)
		}
		return out
	}
	trace := body("/trace")
	if !strings.HasPrefix(trace, "[") || !strings.Contains(trace, `"name":"epoch"`) {
		t.Errorf("/trace = %s, want a trace_event array with the epoch span", trace)
	}
	if chrome := body("/trace/epoch?format=chrome"); chrome != trace {
		t.Errorf("/trace and /trace/epoch?format=chrome differ:\n%s\n%s", trace, chrome)
	}
	if sums := body("/trace/epoch"); sums == trace || !strings.Contains(sums, `"top_stage"`) {
		t.Errorf("/trace/epoch = %s, want the epoch summary listing", sums)
	}
	if roll := body("/trace/critical"); roll == trace || !strings.Contains(roll, `"stages"`) {
		t.Errorf("/trace/critical = %s, want the critical-path rollup", roll)
	}
}
