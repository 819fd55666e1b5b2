// Package telemetry is Speedlight's measurement substrate: a
// dependency-free, concurrency-safe metrics core (counters, gauges,
// fixed-bucket histograms, a registry with labeled families and with
// Func families read at Gather — the protocol counters, which are
// journal ring counts), and HTTP exposition in Prometheus text format,
// expvar JSON, and net/http/pprof.
//
// The package is built for the per-packet hot path: every update is a
// handful of atomic operations with zero allocations, and every metric
// type is safe to use through a nil pointer, which is the
// disabled state. A component instrumented with nil metrics pays one
// predicted branch per update and nothing else — the
// zero-overhead-when-disabled contract the protocol packages rely on.
package telemetry

import (
	"math"
	"sync/atomic"
)

// Counter is a monotonically increasing counter. All methods are safe
// for concurrent use and for nil receivers (a nil Counter is a no-op).
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
//
//speedlight:hotpath
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds n.
//
//speedlight:hotpath
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count. A nil Counter reads zero.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous signed value. All methods are safe for
// concurrent use and for nil receivers.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adds delta.
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// SetMax raises the gauge to v if v is larger — a high-water mark.
//
//speedlight:hotpath
func (g *Gauge) SetMax(v int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if v <= cur {
			return
		}
		if g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value returns the current value. A nil Gauge reads zero.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket histogram. Bucket bounds are upper
// bounds in ascending order; an implicit +Inf bucket catches the rest.
// Observations are allocation-free: a linear scan over the bounds (the
// bucket count is small by construction) plus three atomic updates.
// All methods are safe for concurrent use and for nil receivers.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1; last is +Inf
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits
	max    atomic.Uint64 // float64 bits
}

func newHistogram(bounds []float64) *Histogram {
	b := make([]float64, len(bounds))
	copy(b, bounds)
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one value.
//
//speedlight:hotpath
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		cur := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(cur) + v)
		if h.sum.CompareAndSwap(cur, next) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if v <= math.Float64frombits(cur) && cur != 0 {
			break
		}
		if h.max.CompareAndSwap(cur, math.Float64bits(v)) {
			break
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Max returns the largest observed value, or 0 before any observation.
func (h *Histogram) Max() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.max.Load())
}

// Bounds returns the bucket upper bounds (excluding +Inf).
func (h *Histogram) Bounds() []float64 {
	if h == nil {
		return nil
	}
	out := make([]float64, len(h.bounds))
	copy(out, h.bounds)
	return out
}

// BucketCounts returns the per-bucket counts, the last entry being the
// +Inf bucket.
func (h *Histogram) BucketCounts() []uint64 {
	if h == nil {
		return nil
	}
	out := make([]uint64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}

// Quantile estimates the q-quantile (0 <= q <= 1) by linear
// interpolation inside the containing bucket, clamped to the observed
// maximum. Values in the +Inf bucket report the histogram's observed
// maximum. Returns 0 with no data.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum float64
	for i := range h.counts {
		c := float64(h.counts[i].Load())
		if cum+c >= rank && c > 0 {
			if i == len(h.bounds) {
				return h.Max()
			}
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			hi := h.bounds[i]
			frac := (rank - cum) / c
			est := lo + (hi-lo)*frac
			if max := h.Max(); est > max {
				est = max
			}
			return est
		}
		cum += c
	}
	return h.Max()
}

// ExpBuckets returns count exponentially growing bucket bounds
// starting at start and multiplying by factor.
func ExpBuckets(start, factor float64, count int) []float64 {
	out := make([]float64, count)
	v := start
	for i := 0; i < count; i++ {
		out[i] = v
		v *= factor
	}
	return out
}

// LatencyBucketsUS is the default bucket layout for latency histograms
// measured in microseconds: 1 µs to ~1 s, quadrupling.
var LatencyBucketsUS = ExpBuckets(1, 4, 11)
