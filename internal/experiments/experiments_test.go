package experiments

import (
	"bytes"
	"encoding/csv"
	"strings"
	"testing"
)

func TestTable1MatchesPaper(t *testing.T) {
	tbl := Table1(64)
	var buf bytes.Buffer
	tbl.Fprint(&buf)
	out := buf.String()
	// Spot-check the printed cells against the paper's Table 1.
	for _, want := range []string{"606KB", "671KB", "770KB", "42KB", "59KB", "244KB", "638KB", "90KB"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
	if !strings.Contains(out, "Physical Stages") {
		t.Error("missing stages row")
	}
}

func TestFig9Shape(t *testing.T) {
	r := Fig9(Options{Seed: 3, Quick: true})
	t.Logf("switch state: median=%.2f max=%.2f", r.SwitchState.Median(), r.SwitchState.MaxValue())
	t.Logf("chnl  state: median=%.2f max=%.2f", r.SwitchChannelState.Median(), r.SwitchChannelState.MaxValue())
	t.Logf("polling    : median=%.2f", r.Polling.Median())

	if n := r.SwitchState.N(); n != 40 {
		t.Errorf("switch-state samples = %d, want 40", n)
	}
	if n := r.SwitchChannelState.N(); n != 40 {
		t.Errorf("channel-state samples = %d, want 40", n)
	}
	// Microsecond-scale snapshot synchronization (paper: ~6.4 us median,
	// max 22-27 us).
	if m := r.SwitchState.Median(); m <= 0 || m > 50 {
		t.Errorf("switch-state median %v us out of range", m)
	}
	if m := r.SwitchState.MaxValue(); m > 100 {
		t.Errorf("switch-state max %v us out of range", m)
	}
	// Channel state has the longer tail: completion depends on all
	// upstream neighbors advancing.
	if r.SwitchChannelState.MaxValue() < r.SwitchState.MaxValue() {
		t.Errorf("channel-state tail (%v) shorter than switch-state (%v)",
			r.SwitchChannelState.MaxValue(), r.SwitchState.MaxValue())
	}
	// Polling is orders of magnitude worse (paper: 2.6 ms median).
	if m := r.Polling.Median(); m < 1000 {
		t.Errorf("polling median %v us implausibly good", m)
	}
	if r.Polling.Median() < 20*r.SwitchState.Median() {
		t.Error("polling should be orders of magnitude worse than snapshots")
	}
	// Rendering must not panic and must carry all three series.
	fig := r.Figure()
	if len(fig.Series) != 3 {
		t.Errorf("figure series = %d", len(fig.Series))
	}
}

func TestFig10Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("rate search is slow")
	}
	r := Fig10(Options{Seed: 2, Quick: true})
	if len(r.Points) != 2 {
		t.Fatalf("points = %d", len(r.Points))
	}
	small, large := r.Points[0], r.Points[1]
	t.Logf("8 ports: %.0f Hz, 64 ports: %.0f Hz", small.MaxRateHz, large.MaxRateHz)
	// Rate falls roughly inversely with port count (paper's Figure 10
	// spans 4..64 ports over about two decades).
	if small.MaxRateHz <= large.MaxRateHz {
		t.Error("rate should fall with port count")
	}
	if ratio := small.MaxRateHz / large.MaxRateHz; ratio < 4 || ratio > 16 {
		t.Errorf("8:64 rate ratio = %.1f, want ~8x", ratio)
	}
	// The paper sustains over 70 snapshots/s at 64 ports.
	if large.MaxRateHz < 40 || large.MaxRateHz > 200 {
		t.Errorf("64-port rate %.0f Hz far from paper's ~70", large.MaxRateHz)
	}
	if fig := r.Figure(); len(fig.Series) != 1 {
		t.Error("figure rendering")
	}
}

func TestFig11Shape(t *testing.T) {
	r := Fig11(Options{Seed: 2, Quick: true})
	if len(r.Points) != 4 {
		t.Fatalf("points = %d", len(r.Points))
	}
	for i, p := range r.Points {
		t.Logf("%d routers: %.1f us", p.Routers, p.AvgSyncUs)
		if i > 0 && p.AvgSyncUs < r.Points[i-1].AvgSyncUs {
			t.Errorf("sync shrank from %d to %d routers", r.Points[i-1].Routers, p.Routers)
		}
	}
	first, last := r.Points[0], r.Points[len(r.Points)-1]
	if last.AvgSyncUs <= first.AvgSyncUs {
		t.Error("sync should grow with network size")
	}
	// Growth is asymptotic: the 10x size step from 1000 to 10000 must
	// add less than the 100x step from 10 to 1000.
	g1 := r.Points[2].AvgSyncUs - r.Points[0].AvgSyncUs
	g2 := last.AvgSyncUs - r.Points[2].AvgSyncUs
	if g2 > g1 {
		t.Errorf("growth accelerating (%.1f then %.1f): not asymptotic", g1, g2)
	}
	// Stays under typical RTTs (paper: < ~100 us even at 10k routers).
	if last.AvgSyncUs > 150 {
		t.Errorf("10k-router sync %.1f us too large", last.AvgSyncUs)
	}
	if fig := r.Figure(); len(fig.Series) != 1 {
		t.Error("figure rendering")
	}
}

func TestFig12Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("full workload sweep is slow")
	}
	r := Fig12(Options{Seed: 2, Quick: true})
	if len(r.Workloads) != 3 {
		t.Fatalf("workloads = %d", len(r.Workloads))
	}
	for _, wl := range r.Workloads {
		if len(wl.Series) != 4 {
			t.Fatalf("%s series = %d", wl.Workload, len(wl.Series))
		}
		for _, s := range wl.Series {
			if s.CDF.N() < 60 {
				t.Errorf("%s %s %s: only %d samples", wl.Workload, s.Balancer, s.Method, s.CDF.N())
			}
		}
	}
	// The headline result: snapshots reveal that flowlet switching
	// balances the Hadoop shuffle far better than ECMP. The CDFs
	// diverge in the body and tail (the paper's Figure 12a), so compare
	// the 75th percentile.
	he, _ := r.Quantile("hadoop", "ecmp", "snapshots", 0.75)
	hf, _ := r.Quantile("hadoop", "flowlet", "snapshots", 0.75)
	t.Logf("hadoop snapshots p75: ecmp=%.2f flowlet=%.2f", he, hf)
	if hf >= he {
		t.Errorf("flowlet (p75 %.2f) should balance better than ECMP (p75 %.2f) under snapshots", hf, he)
	}
	// Memcache is inherently well balanced: its imbalance is small
	// under either balancer.
	me, _ := r.Median("memcache", "ecmp", "snapshots")
	mf, _ := r.Median("memcache", "flowlet", "snapshots")
	if me <= 0 || mf <= 0 {
		t.Error("memcache medians should be positive (live EWMAs)")
	}
	// Rendering.
	figs := r.Figures()
	if len(figs) != 3 {
		t.Errorf("figures = %d", len(figs))
	}
	if _, ok := r.Median("nope", "ecmp", "snapshots"); ok {
		t.Error("unknown workload lookup should fail")
	}
}

func TestFig13Shape(t *testing.T) {
	r := Fig13(Options{Seed: 1, Quick: true})
	t.Logf("snapshots: sig=%d ecmp +%d -%d; polling: sig=%d ecmp +%d -%d",
		r.Snapshot.Significant, r.Snapshot.ECMPPairsPositive, r.Snapshot.ECMPPairsNegative,
		r.Polling.Significant, r.Polling.ECMPPairsPositive, r.Polling.ECMPPairsNegative)

	// Paper: snapshots find more significant correlations (43% more in
	// their run).
	if r.Snapshot.Significant <= r.Polling.Significant {
		t.Errorf("snapshots (%d) should find more significant pairs than polling (%d)",
			r.Snapshot.Significant, r.Polling.Significant)
	}
	// Ground truth 1: the master's port is uncorrelated under snapshots.
	if !r.Snapshot.MasterPortClean {
		t.Error("snapshots found spurious master-port correlations")
	}
	// Ground truth 2: snapshots find the positive ECMP correlations;
	// polling misses them (insignificant or even negative).
	if r.Snapshot.ECMPPairsPositive != r.Snapshot.ECMPPairsTotal {
		t.Errorf("snapshots matched %d/%d ECMP pairs",
			r.Snapshot.ECMPPairsPositive, r.Snapshot.ECMPPairsTotal)
	}
	if r.Polling.ECMPPairsPositive == r.Polling.ECMPPairsTotal {
		t.Error("polling should fail to identify the ECMP correlations")
	}
	// Rendering.
	tbl := r.Table()
	var buf bytes.Buffer
	tbl.Fprint(&buf)
	if !strings.Contains(buf.String(), "significant pairs") {
		t.Error("table rendering")
	}
}

func TestFigureAndTableRendering(t *testing.T) {
	f := &Figure{
		Title: "t", XLabel: "x", YLabel: "y",
		Series: []Series{{Name: "s", Points: []Point{{1, 2}}}},
		Notes:  []string{"n"},
	}
	var buf bytes.Buffer
	f.Fprint(&buf)
	out := buf.String()
	for _, want := range []string{"== t ==", "series \"s\"", "note: n"} {
		if !strings.Contains(out, want) {
			t.Errorf("figure output missing %q", want)
		}
	}
	tbl := &Table{Title: "tt", Header: []string{"a", "bb"}, Rows: [][]string{{"1", "2"}}}
	buf.Reset()
	tbl.Fprint(&buf)
	if !strings.Contains(buf.String(), "== tt ==") {
		t.Error("table title missing")
	}
}

func TestFprintPlot(t *testing.T) {
	f := &Figure{
		Title: "plot", XLabel: "x", YLabel: "y",
		Series: []Series{
			{Name: "a", Points: []Point{{1, 0}, {10, 0.5}, {10000, 1}}},
			{Name: "b", Points: []Point{{2, 0.2}, {500, 0.9}}},
		},
	}
	var buf bytes.Buffer
	f.FprintPlot(&buf, 40, 10)
	out := buf.String()
	for _, want := range []string{"== plot ==", "* = a", "+ = b", "log10"} {
		if !strings.Contains(out, want) {
			t.Errorf("plot missing %q:\n%s", want, out)
		}
	}
	if lines := strings.Count(out, "\n"); lines < 12 {
		t.Errorf("plot too short: %d lines", lines)
	}
	// Degenerate inputs must not panic.
	empty := &Figure{Title: "e"}
	buf.Reset()
	empty.FprintPlot(&buf, 0, 0)
	if !strings.Contains(buf.String(), "no data") {
		t.Error("empty figure handling")
	}
	flat := &Figure{Title: "f", Series: []Series{{Name: "s", Points: []Point{{5, 3}, {5, 3}}}}}
	buf.Reset()
	flat.FprintPlot(&buf, 30, 8)
	if !strings.Contains(buf.String(), "== f ==") {
		t.Error("flat figure handling")
	}
}

func TestFigureCSV(t *testing.T) {
	f := &Figure{
		XLabel: "x", YLabel: "y",
		Series: []Series{
			{Name: "a", Points: []Point{{X: 1, Y: 2}, {X: 3, Y: 4}}},
			{Name: "b", Points: []Point{{X: 5, Y: 6}}},
		},
	}
	var buf bytes.Buffer
	if err := f.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"series,x,y", "a,1,2", "a,3,4", "b,5,6"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	if err := (&Figure{}).WriteCSV(&buf); err != nil {
		t.Fatalf("empty figure: %v", err)
	}
}

func TestTableCSV(t *testing.T) {
	tb := &Table{
		Header: []string{"k", "v"},
		Rows:   [][]string{{"a", "1"}, {"b", "2"}},
	}
	var buf bytes.Buffer
	if err := tb.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	records, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 3 || records[1][1] != "1" {
		t.Errorf("records = %v", records)
	}
}
