package main

import (
	"sort"
	"time"

	"speedlight/internal/telemetry"
)

// span is one timed call the driver made into the program. Spans are
// recorded from this package only, around the public entry points of
// each layer; the program itself is not instrumented. A span that
// stands for a batch of identical calls (per-packet Inject) carries
// the call count in Calls.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // -1 at the root
	Rep     int    `json:"rep"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Calls   int    `json:"calls,omitempty"`
}

// tracer keeps spans in memory until the run ends. The driver is one
// goroutine, so a stack gives each span its parent. A nil tracer is
// the untraced run: every method is a no-op.
type tracer struct {
	t0    time.Time
	rep   int
	spans []span
	stack []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Rep: t.rep, Name: name,
		StartNs: time.Since(t.t0).Nanoseconds()})
	t.stack = append(t.stack, id)
}

func (t *tracer) end() { t.endCalls(0) }

// endCalls closes the open span and records how many calls it stands
// for.
func (t *tracer) endCalls(calls int) {
	if t == nil {
		return
	}
	id := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	t.spans[id].EndNs = time.Since(t.t0).Nanoseconds()
	t.spans[id].Calls = calls
}

// timed runs fn inside a span and returns its wall time. The duration
// is measured whether or not a tracer is attached, so the untraced run
// gets its host-time metrics from the same call sites.
func timed(t *tracer, name string, fn func()) time.Duration {
	t.begin(name)
	start := time.Now()
	fn()
	d := time.Since(start)
	t.end()
	return d
}

// spanTotal is the per-name roll-up printed after a traced run: total
// time, and self time (total minus the part covered by child spans).
type spanTotal struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	Calls   int     `json:"calls,omitempty"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

func spanTotals(spans []span) []spanTotal {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.EndNs - s.StartNs
		}
	}
	by := map[string]*spanTotal{}
	for _, s := range spans {
		st := by[s.Name]
		if st == nil {
			st = &spanTotal{Name: s.Name}
			by[s.Name] = st
		}
		d := s.EndNs - s.StartNs
		st.Count++
		st.Calls += s.Calls
		st.TotalMs += float64(d) / 1e6
		st.SelfMs += float64(d-child[s.ID]) / 1e6
	}
	out := make([]spanTotal, 0, len(by))
	for _, st := range by {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].TotalMs > out[j].TotalMs })
	return out
}

// aggregate records one span standing for calls identical calls whose
// durations sum to total, such as a window's per-packet Injects. It
// starts where the first call started.
func (t *tracer) aggregate(name string, firstStart time.Time, total time.Duration, calls int) {
	if t == nil || calls == 0 {
		return
	}
	t.begin(name)
	id := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	t.spans[id].StartNs = firstStart.Sub(t.t0).Nanoseconds()
	t.spans[id].EndNs = t.spans[id].StartNs + total.Nanoseconds()
	t.spans[id].Calls = calls
}

// regSnap is a registry read at one instant: counters and gauges by
// name, labelled series summed (counters) or maxed (gauges).
// Histograms are skipped: the driver keeps its own latency samples.
type regSnap struct{ counters, gauges map[string]float64 }

func readRegistry(reg *telemetry.Registry) regSnap {
	s := regSnap{counters: map[string]float64{}, gauges: map[string]float64{}}
	for _, series := range reg.Gather() {
		switch series.Kind {
		case telemetry.KindCounter:
			s.counters[series.Name] += float64(series.Value)
		case telemetry.KindGauge:
			if v := float64(series.GaugeValue); v > s.gauges[series.Name] {
				s.gauges[series.Name] = v
			}
		}
	}
	return s
}

// since returns what the counters gained after an earlier read, and
// the gauges (all high-water marks) as they now stand.
func (s regSnap) since(before regSnap) map[string]float64 {
	out := make(map[string]float64, len(s.counters)+len(s.gauges))
	for name, v := range s.counters {
		out[name] = v - before.counters[name]
	}
	for name, v := range s.gauges {
		out[name] = v
	}
	return out
}
