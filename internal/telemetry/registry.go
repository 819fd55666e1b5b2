package telemetry

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Kind distinguishes metric families.
type Kind int

// Metric family kinds.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// family is one named metric family: a single unlabeled series or a set
// of labeled series.
type family struct {
	name   string
	help   string
	kind   Kind
	labels []string
	bounds []float64 // histograms only

	mu     sync.Mutex
	series map[string]any // label key -> *Counter / *Gauge / *Histogram
	order  []string
	reads  []source // a Func family's sources; it has no series
}

// source is one owner's contribution to a Func family.
type source struct {
	owner any
	read  func() int64
}

const labelSep = "\x1f"

func (f *family) get(key string) (any, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	m, ok := f.series[key]
	return m, ok
}

func (f *family) getOrCreate(key string) any {
	f.mu.Lock()
	defer f.mu.Unlock()
	if m, ok := f.series[key]; ok {
		return m
	}
	if f.reads != nil {
		panic(fmt.Sprintf("telemetry: %s is a Func family", f.name))
	}
	var m any
	switch f.kind {
	case KindCounter:
		m = &Counter{}
	case KindGauge:
		m = &Gauge{}
	default:
		m = newHistogram(f.bounds)
	}
	f.series[key] = m
	f.order = append(f.order, key)
	return m
}

// Registry holds named metric families. Registration is idempotent:
// asking twice for the same name returns the same metric, so several
// subsystems can share one series. A nil *Registry is the disabled
// state — every constructor on it returns nil metrics, whose updates
// are no-ops.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []string
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// family returns the named family, creating it on first use and
// panicking on a kind or label mismatch (a programming error).
func (r *Registry) family(name, help string, kind Kind, labels []string, bounds []float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != kind {
			panic(fmt.Sprintf("telemetry: %s re-registered as %s, was %s", name, kind, f.kind))
		}
		if len(f.labels) != len(labels) {
			panic(fmt.Sprintf("telemetry: %s re-registered with %d labels, had %d", name, len(labels), len(f.labels)))
		}
		return f
	}
	f := &family{
		name: name, help: help, kind: kind,
		labels: append([]string(nil), labels...),
		bounds: append([]float64(nil), bounds...),
		series: make(map[string]any),
	}
	r.families[name] = f
	r.order = append(r.order, name)
	sort.Strings(r.order)
	return f
}

// Counter returns the named counter, registering it on first use.
// Returns nil (a no-op counter) on a nil registry.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	return r.family(name, help, KindCounter, nil, nil).getOrCreate("").(*Counter)
}

// Gauge returns the named gauge, registering it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	return r.family(name, help, KindGauge, nil, nil).getOrCreate("").(*Gauge)
}

// Histogram returns the named histogram, registering it on first use
// with the given bucket upper bounds (ascending; +Inf is implicit).
// Later calls reuse the first registration's buckets.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	return r.family(name, help, KindHistogram, nil, bounds).getOrCreate("").(*Histogram)
}

// CounterVec is a family of counters distinguished by label values.
type CounterVec struct {
	f *family
}

// CounterVec returns the named labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	if r == nil {
		return nil
	}
	return &CounterVec{f: r.family(name, help, KindCounter, labels, nil)}
}

// With returns the counter for the given label values, creating it on
// first use. Resolve once at setup time; the returned counter is the
// hot-path handle. A nil vec returns a nil (no-op) counter.
func (v *CounterVec) With(values ...string) *Counter {
	if v == nil {
		return nil
	}
	if len(values) != len(v.f.labels) {
		panic(fmt.Sprintf("telemetry: %s wants %d label values, got %d", v.f.name, len(v.f.labels), len(values)))
	}
	return v.f.getOrCreate(strings.Join(values, labelSep)).(*Counter)
}

// Func registers an unlabeled counter or gauge (kind is KindCounter or
// KindGauge) whose value is read at Gather: the sum of read over every
// owner registered under name. An owner registering again under the
// same name is ignored, so no source is counted twice. Nothing on a nil
// registry.
func (r *Registry) Func(name, help string, kind Kind, owner any, read func() int64) {
	if r == nil {
		return
	}
	f := r.family(name, help, kind, nil, nil)
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.series) != 0 {
		panic(fmt.Sprintf("telemetry: %s is not a Func family", name))
	}
	for _, s := range f.reads {
		if s.owner == owner {
			return
		}
	}
	f.reads = append(f.reads, source{owner: owner, read: read})
}

// Series is one exported time-series sample, flattened for exposition.
type Series struct {
	Name   string
	Help   string
	Kind   Kind
	Labels []string // label names, parallel to Values
	Values []string // label values

	// Counter reads into Value; Gauge into GaugeValue; Histogram into
	// Hist.
	Value      uint64
	GaugeValue int64
	Hist       *Histogram
}

// labelString renders {k="v",...}, or "" without labels.
func (s *Series) labelString() string {
	if len(s.Labels) == 0 {
		return ""
	}
	parts := make([]string, len(s.Labels))
	for i := range s.Labels {
		parts[i] = fmt.Sprintf("%s=%q", s.Labels[i], s.Values[i])
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// FullName renders the series name with its label set appended.
func (s *Series) FullName() string { return s.Name + s.labelString() }

// Gather returns every registered series in deterministic order
// (families sorted by name, series in creation order).
func (r *Registry) Gather() []Series {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	names := append([]string(nil), r.order...)
	fams := make([]*family, 0, len(names))
	for _, n := range names {
		fams = append(fams, r.families[n])
	}
	r.mu.Unlock()

	var out []Series
	for _, f := range fams {
		f.mu.Lock()
		keys := append([]string(nil), f.order...)
		reads := f.reads
		f.mu.Unlock()
		if reads != nil {
			s := Series{Name: f.name, Help: f.help, Kind: f.kind}
			for _, src := range reads {
				s.GaugeValue += src.read()
			}
			if f.kind == KindCounter {
				s.Value, s.GaugeValue = uint64(s.GaugeValue), 0
			}
			out = append(out, s)
			continue
		}
		for _, key := range keys {
			m, ok := f.get(key)
			if !ok {
				continue
			}
			s := Series{Name: f.name, Help: f.help, Kind: f.kind, Labels: f.labels}
			if key != "" {
				s.Values = strings.Split(key, labelSep)
			}
			switch v := m.(type) {
			case *Counter:
				s.Value = v.Value()
			case *Gauge:
				s.GaugeValue = v.Value()
			case *Histogram:
				s.Hist = v
			}
			out = append(out, s)
		}
	}
	return out
}
