package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"text/tabwriter"
)

// WritePrometheus renders every registered series in the Prometheus
// text exposition format (version 0.0.4).
func (r *Registry) WritePrometheus(w io.Writer) error {
	lastFamily := ""
	for _, s := range r.Gather() {
		if s.Name != lastFamily {
			lastFamily = s.Name
			if s.Help != "" {
				if _, err := fmt.Fprintf(w, "# HELP %s %s\n", s.Name, s.Help); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", s.Name, s.Kind); err != nil {
				return err
			}
		}
		switch s.Kind {
		case KindCounter:
			if _, err := fmt.Fprintf(w, "%s %d\n", s.FullName(), s.Value); err != nil {
				return err
			}
		case KindGauge:
			if _, err := fmt.Fprintf(w, "%s %d\n", s.FullName(), s.GaugeValue); err != nil {
				return err
			}
		case KindHistogram:
			h := s.Hist
			bounds := h.Bounds()
			counts := h.BucketCounts()
			var cum uint64
			for i, c := range counts {
				cum += c
				le := "+Inf"
				if i < len(bounds) {
					le = formatFloat(bounds[i])
				}
				if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", s.Name, mergeLabel(&s, "le", le), cum); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", s.Name, s.labelString(), formatFloat(h.Sum())); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s_count%s %d\n", s.Name, s.labelString(), h.Count()); err != nil {
				return err
			}
		}
	}
	return nil
}

// mergeLabel renders a series' label set with one extra pair appended.
func mergeLabel(s *Series, name, value string) string {
	parts := make([]string, 0, len(s.Labels)+1)
	for i := range s.Labels {
		parts = append(parts, fmt.Sprintf("%s=%q", s.Labels[i], s.Values[i]))
	}
	parts = append(parts, fmt.Sprintf("%s=%q", name, value))
	out := "{"
	for i, p := range parts {
		if i > 0 {
			out += ","
		}
		out += p
	}
	return out + "}"
}

func formatFloat(f float64) string {
	return strconv.FormatFloat(f, 'g', -1, 64)
}

// HistogramJSON is a histogram's JSON exposition shape.
type HistogramJSON struct {
	Count   uint64            `json:"count"`
	Sum     float64           `json:"sum"`
	Max     float64           `json:"max"`
	P50     float64           `json:"p50"`
	P90     float64           `json:"p90"`
	P99     float64           `json:"p99"`
	Buckets map[string]uint64 `json:"buckets"`
}

// JSONValue returns the registry's state as a JSON-marshalable value:
// counters and gauges as numbers, histograms as HistogramJSON, keyed by
// full series name. This is what the expvar endpoint publishes.
func (r *Registry) JSONValue() map[string]any {
	out := make(map[string]any)
	for _, s := range r.Gather() {
		switch s.Kind {
		case KindCounter:
			out[s.FullName()] = s.Value
		case KindGauge:
			out[s.FullName()] = s.GaugeValue
		case KindHistogram:
			h := s.Hist
			bounds := h.Bounds()
			counts := h.BucketCounts()
			buckets := make(map[string]uint64, len(counts))
			for i, c := range counts {
				if c == 0 {
					continue
				}
				le := "+Inf"
				if i < len(bounds) {
					le = formatFloat(bounds[i])
				}
				buckets[le] = c
			}
			out[s.FullName()] = HistogramJSON{
				Count: h.Count(), Sum: h.Sum(), Max: h.Max(),
				P50: h.Quantile(0.5), P90: h.Quantile(0.9), P99: h.Quantile(0.99),
				Buckets: buckets,
			}
		}
	}
	return out
}

// WriteSummary renders a human-readable end-of-run table: counters and
// gauges with their values, histograms with count and percentiles. Zero
// counters are elided to keep sim-run output focused.
func (r *Registry) WriteSummary(w io.Writer) error {
	series := r.Gather()
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tvalue")
	var hists []Series
	for _, s := range series {
		switch s.Kind {
		case KindCounter:
			if s.Value != 0 {
				fmt.Fprintf(tw, "%s\t%d\n", s.FullName(), s.Value)
			}
		case KindGauge:
			if s.GaugeValue != 0 {
				fmt.Fprintf(tw, "%s\t%d\n", s.FullName(), s.GaugeValue)
			}
		case KindHistogram:
			if s.Hist.Count() != 0 {
				hists = append(hists, s)
			}
		}
	}
	sort.SliceStable(hists, func(i, j int) bool { return hists[i].Name < hists[j].Name })
	for _, s := range hists {
		h := s.Hist
		fmt.Fprintf(tw, "%s\tn=%d p50=%.1f p90=%.1f p99=%.1f max=%.1f\n",
			s.FullName(), h.Count(), h.Quantile(0.5), h.Quantile(0.9), h.Quantile(0.99), h.Max())
	}
	return tw.Flush()
}
