package experiments

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"
)

func TestUseCasesShape(t *testing.T) {
	o := Options{Seed: 1, Quick: true}
	l, b, p := loopDetect(o), microburst(o), provisioning(o)

	// Loop detection: snapshots never report the impossible ordering,
	// polling does; every migration is observed by both methods and
	// checked by the invariant, which never fires.
	if l.observed != l.trials {
		t.Errorf("%d of %d migrations observed by both methods", l.observed, l.trials)
	}
	if l.snap.impossible != 0 {
		t.Errorf("snapshots reported %d impossible states", l.snap.impossible)
	}
	if l.poll.impossible == 0 {
		t.Error("polling reported no impossible state")
	}
	if l.cuts != uint64(l.trials) || l.flagged != 0 {
		t.Errorf("fib-order invariant flagged %d of %d cuts, want 0 of %d", l.flagged, l.cuts, l.trials)
	}
	// Microburst: the high-water register catches nearly every burst,
	// and more than the gauge.
	if float64(b.highWaterHits) < 0.9*float64(b.rounds) || b.highWaterHits <= b.gaugeHits {
		t.Errorf("high-water register caught %d of %d bursts, gauge %d", b.highWaterHits, b.rounds, b.gaugeHits)
	}
	// Provisioning: the two workloads average the same utilization,
	// yet synchronized bursts load more uplinks at once, and only they
	// break the headroom invariant.
	if len(p) != 2 {
		t.Fatalf("scenarios = %d", len(p))
	}
	sync, stag := p[0], p[1]
	if d := math.Abs(sync.util-stag.util) * 100; d > 1 {
		t.Errorf("average uplink utilization %.1f%% vs %.1f%%: %.1f points apart, want at most 1", sync.util*100, stag.util*100, d)
	}
	if sync.loaded.Quantile(0.9) <= stag.loaded.Quantile(0.9) {
		t.Errorf("synchronized p90 %.0f not above staggered p90 %.0f", sync.loaded.Quantile(0.9), stag.loaded.Quantile(0.9))
	}
	if stag.violations != 0 {
		t.Errorf("staggered bursts broke the headroom invariant %d times", stag.violations)
	}

	// The seed fixes every count.
	got := []any{
		l.snap.impossible, l.snap.transient, l.poll.impossible, l.poll.transient,
		b.gaugeHits, b.highWaterHits,
		fmt.Sprintf("%.1f", sync.util*100), sync.loaded.Quantile(0.9), sync.violations, sync.cuts,
		fmt.Sprintf("%.1f", stag.util*100), stag.loaded.Quantile(0.9), stag.violations, stag.cuts,
	}
	want := []any{
		0, 9, 10, 0,
		0, 19,
		"35.6", 4.0, uint64(9), uint64(40),
		"35.3", 1.0, uint64(0), uint64(40),
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("seed-1 counts = %v, want %v", got, want)
			break
		}
	}

	var buf bytes.Buffer
	useCasesTable(l, b, p).Fprint(&buf)
	for _, s := range []string{"impossible (v1,v2) states", "high-water register", "staggered"} {
		if !strings.Contains(buf.String(), s) {
			t.Errorf("table missing %q:\n%s", s, buf.String())
		}
	}
}
