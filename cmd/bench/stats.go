package main

import (
	"math"

	"speedlight/internal/stats"
)

// summary is the order statistics of one metric's samples: one per
// repetition, or one per slice for the host-time rates. The Median is
// what the benchmark reports, with Min/Max and N beside it; Q1/Q3 feed
// the compare mode's spread.
type summary struct {
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
	// Samples are the values in run order, so a report can be studied
	// under another statistic than the one it printed.
	Samples []float64 `json:"samples,omitempty"`
}

func summarize(v []float64) summary {
	c := stats.NewCDF(v)
	if c.N() == 0 {
		return summary{}
	}
	return summary{
		Median:  c.Median(),
		Min:     c.MinValue(),
		Max:     c.MaxValue(),
		Q1:      c.Quantile(0.25),
		Q3:      c.Quantile(0.75),
		N:       c.N(),
		Samples: v,
	}
}

// percentile interpolates linearly between order statistics; NaN when
// there are no samples.
func percentile(v []float64, q float64) float64 { return stats.NewCDF(v).Quantile(q) }

func median(v []float64) float64 { return percentile(v, 0.5) }

// spread is the interquartile distance as a share of the median, the
// same run-to-run spread the benchmark contract bounds.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs((s.Q3 - s.Q1) / s.Median)
}
