package telemetry

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestNilMetricsAreNoOps(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	c.Inc()
	c.Add(5)
	g.Set(3)
	g.Add(1)
	g.SetMax(9)
	h.Observe(1.5)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("nil metrics must read zero")
	}
	var r *Registry
	if r.Counter("x", "") != nil || r.Gauge("x", "") != nil || r.Histogram("x", "", nil) != nil {
		t.Fatal("nil registry must hand out nil metrics")
	}
	if r.CounterVec("x", "", "l").With("v") != nil {
		t.Fatal("nil counter vec must hand out nil counters")
	}
	if got := r.Gather(); got != nil {
		t.Fatalf("nil registry gather = %v", got)
	}
}

// TestHotPathAllocs gates the primitives instrumented code calls per
// packet — a counter increment and add, a gauge high-water update and a
// histogram observation — on live metrics and on nil (disabled) ones:
// neither allocates.
//
//speedlight:allocgate telemetry.Counter.Inc telemetry.Counter.Add telemetry.Gauge.SetMax telemetry.Histogram.Observe
func TestHotPathAllocs(t *testing.T) {
	for _, reg := range []*Registry{NewRegistry(), nil} {
		c := reg.Counter("pkts_total", "")
		g := reg.Gauge("depth", "")
		h := reg.Histogram("lat_us", "", LatencyBucketsUS)
		i := 0
		if allocs := testing.AllocsPerRun(1000, func() {
			c.Inc()
			c.Add(2)
			g.SetMax(int64(i & 1023))
			h.Observe(float64(i & 4095))
			i++
		}); allocs != 0 {
			t.Errorf("enabled %v: the hot-path primitives allocate %.1f/op, want 0", reg != nil, allocs)
		}
		if reg != nil && (c.Value() != 3*1001 || g.Value() != 1000 || h.Count() != 1001) {
			t.Errorf("counter %d, gauge %d, histogram count %d: want 3003, 1000, 1001", c.Value(), g.Value(), h.Count())
		}
	}
}

func TestCounterGauge(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("reqs_total", "requests")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	if again := reg.Counter("reqs_total", "requests"); again != c {
		t.Fatal("re-registration must return the same counter")
	}

	g := reg.Gauge("depth", "queue depth")
	g.Set(7)
	g.Add(-2)
	if g.Value() != 5 {
		t.Fatalf("gauge = %d, want 5", g.Value())
	}
	g.SetMax(3)
	if g.Value() != 5 {
		t.Fatal("SetMax must not lower the gauge")
	}
	g.SetMax(11)
	if g.Value() != 11 {
		t.Fatal("SetMax must raise the gauge")
	}
}

func TestHistogramQuantiles(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("lat_us", "latency", []float64{10, 100, 1000})
	for i := 0; i < 90; i++ {
		h.Observe(5) // first bucket
	}
	for i := 0; i < 10; i++ {
		h.Observe(500) // third bucket
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	if got := h.Sum(); math.Abs(got-(90*5+10*500)) > 1e-9 {
		t.Fatalf("sum = %g", got)
	}
	if h.Max() != 500 {
		t.Fatalf("max = %g", h.Max())
	}
	if p50 := h.Quantile(0.5); p50 <= 0 || p50 > 10 {
		t.Fatalf("p50 = %g, want within first bucket (0,10]", p50)
	}
	if p99 := h.Quantile(0.99); p99 <= 100 || p99 > 1000 {
		t.Fatalf("p99 = %g, want within third bucket (100,1000]", p99)
	}
	h.Observe(5000) // +Inf bucket
	if q := h.Quantile(1); q != 5000 {
		t.Fatalf("q1 = %g, want observed max", q)
	}
}

func TestCounterVecLabels(t *testing.T) {
	reg := NewRegistry()
	vec := reg.CounterVec("sw_pkts_total", "per-switch packets", "switch")
	a := vec.With("0")
	b := vec.With("1")
	if a == b {
		t.Fatal("distinct label values must get distinct counters")
	}
	if vec.With("0") != a {
		t.Fatal("same label value must get the same counter")
	}
	a.Add(3)
	b.Inc()

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE sw_pkts_total counter",
		`sw_pkts_total{switch="0"} 3`,
		`sw_pkts_total{switch="1"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

// TestFuncSumsOwnersOnce: a Func family gathers as its kind, summing one
// read per owner however often each owner registers.
func TestFuncSumsOwnersOnce(t *testing.T) {
	reg := NewRegistry()
	a, b := new(int), new(int)
	reg.Func("done_total", "done", KindCounter, a, func() int64 { return 3 })
	reg.Func("done_total", "done", KindCounter, a, func() int64 { return 100 })
	reg.Func("done_total", "done", KindCounter, b, func() int64 { return 4 })
	reg.Func("open", "open", KindGauge, a, func() int64 { return -2 })
	got := reg.Gather()
	if len(got) != 2 || got[0].Name != "done_total" || got[0].Kind != KindCounter || got[0].Value != 7 ||
		got[1].Name != "open" || got[1].Kind != KindGauge || got[1].GaugeValue != -2 {
		t.Fatalf("Gather = %+v, want done_total 7 and open -2", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a Counter under a Func family's name must panic")
		}
	}()
	reg.Counter("done_total", "done")
}

func TestPrometheusHistogramFormat(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("lat_us", "latency", []float64{1, 10})
	h.Observe(0.5)
	h.Observe(5)
	h.Observe(50)
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE lat_us histogram",
		`lat_us_bucket{le="1"} 1`,
		`lat_us_bucket{le="10"} 2`,
		`lat_us_bucket{le="+Inf"} 3`,
		"lat_us_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

func TestJSONValueRoundTrips(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("a_total", "").Add(2)
	reg.Gauge("b", "").Set(-4)
	reg.Histogram("c_us", "", []float64{1, 2}).Observe(1.5)
	data, err := json.Marshal(reg.JSONValue())
	if err != nil {
		t.Fatal(err)
	}
	var decoded map[string]json.RawMessage
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, data)
	}
	for _, key := range []string{"a_total", "b", "c_us"} {
		if _, ok := decoded[key]; !ok {
			t.Fatalf("JSON missing %q: %s", key, data)
		}
	}
}

func TestSummaryElidesZeroes(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("used_total", "").Inc()
	reg.Counter("unused_total", "")
	var buf bytes.Buffer
	if err := reg.WriteSummary(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "used_total") {
		t.Fatalf("summary missing used counter:\n%s", buf.String())
	}
	if strings.Contains(buf.String(), "unused_total") {
		t.Fatalf("summary must elide zero counters:\n%s", buf.String())
	}
}

func TestConcurrentUpdates(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("c_total", "")
	g := reg.Gauge("g", "")
	h := reg.Histogram("h", "", ExpBuckets(1, 2, 10))
	var wg sync.WaitGroup
	const workers, per = 8, 1000
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				g.SetMax(int64(w*per + i))
				h.Observe(float64(i % 100))
			}
		}()
	}
	wg.Wait()
	if c.Value() != workers*per {
		t.Fatalf("counter = %d, want %d", c.Value(), workers*per)
	}
	if h.Count() != workers*per {
		t.Fatalf("histogram count = %d, want %d", h.Count(), workers*per)
	}
	if g.Value() != workers*per-1 {
		t.Fatalf("gauge high water = %d, want %d", g.Value(), workers*per-1)
	}
}
