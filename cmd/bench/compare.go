package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

func readReport(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rep := &report{}
	if err := json.Unmarshal(b, rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

// verdict classes of one workload x metric comparison.
const (
	vOK         = "ok"
	vBetter     = "better"
	vUnresolved = "unresolved"
	vRegression = "REGRESSION"
	vDiffers    = "DIFFERS"
)

// judge compares one end-to-end metric of baseline a and candidate b
// against the metric's bound. Where the run-to-run spread of either
// side is wider than the bound the medians cannot resolve a change of
// that size: the verdict is unresolved, unless every repetition of one
// side reads better than every repetition of the other.
func judge(sp metricSpec, a, b metric) (verdict string, worse float64) {
	if a.Median == 0 {
		if b.Median > a.Median && sp.Better == "lower" {
			return vRegression, 0
		}
		return vOK, 0
	}
	worse = (b.Median - a.Median) / a.Median
	bBetter, aBetter := b.Max < a.Min, a.Max < b.Min
	if sp.Better == "higher" {
		worse = -worse
		bBetter, aBetter = b.Min > a.Max, a.Min > b.Max
	}
	spread := a.spread()
	if s := b.spread(); s > spread {
		spread = s
	}
	switch {
	case spread > sp.Bound && bBetter:
		return vBetter, worse
	case spread > sp.Bound && !(aBetter && worse > sp.Bound):
		return vUnresolved, worse
	case worse > sp.Bound:
		return vRegression, worse
	case worse < -sp.Bound:
		return vBetter, worse
	}
	return vOK, worse
}

// compareReports prints, per workload and metric, how candidate b
// stands against baseline a, and reports whether b is acceptable: no
// end-to-end metric worse by more than its bound, and - same seed,
// same sizes - every virtual-time metric and every count of the
// deterministic workloads exactly equal.
func compareReports(w io.Writer, a, b *report) bool {
	ok := true
	sameInputs := a.Env.Seed == b.Env.Seed && a.Env.Smoke == b.Env.Smoke
	if !sameInputs {
		fmt.Fprintf(w, "inputs differ (seed %d/%d, smoke %t/%t): exact-equality checks skipped\n",
			a.Env.Seed, b.Env.Seed, a.Env.Smoke, b.Env.Smoke)
	}
	des := map[string]bool{}
	for _, wl := range workloads() {
		des[wl.name] = wl.des
	}
	byName := map[string]*result{}
	for _, r := range a.Workloads {
		byName[r.Workload] = r
	}
	for _, rb := range b.Workloads {
		ra := byName[rb.Workload]
		if ra == nil {
			continue
		}
		fmt.Fprintf(w, "%s\n", rb.Workload)
		for _, sp := range specs {
			ma, inA := ra.Metrics[sp.Name]
			mb, inB := rb.Metrics[sp.Name]
			if !inA || !inB {
				continue
			}
			switch {
			case sp.exact() && des[rb.Workload]:
				if !sameInputs {
					continue
				}
				if ma.Median != mb.Median {
					ok = false
					fmt.Fprintf(w, "  %-34s %-10s %g -> %g (must be exactly equal)\n", sp.Name, vDiffers, ma.Median, mb.Median)
				} else if sp.EndToEnd {
					fmt.Fprintf(w, "  %-34s %-10s %g\n", sp.Name, vOK, ma.Median)
				}
			case sp.EndToEnd:
				verdict, worse := judge(sp, ma, mb)
				if verdict == vRegression {
					ok = false
				}
				fmt.Fprintf(w, "  %-34s %-10s %.6g -> %.6g %s (%+.1f%% worse, bound %.0f%%, spread %.1f%%/%.1f%%)\n",
					sp.Name, verdict, ma.Median, mb.Median, sp.Unit, 100*worse, 100*sp.Bound, 100*ma.spread(), 100*mb.spread())
			}
		}
	}
	return ok
}
