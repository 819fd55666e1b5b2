package emunet

import (
	"testing"
	"time"

	"speedlight/internal/journal"
	"speedlight/internal/sim"
	"speedlight/internal/stats"
)

// TestTraceBudget holds what the flight-recorder journal adds to the
// emulation at 12 ns per simulator event, as an exact count times a
// cost card. The count — journal appends over simulator events on the
// pipeline loop at 500 000 packets with a snapshot every 8 192 — is a
// pure function of the seed and is pinned exactly: one more append per
// packet, or per hop, changes it. The card is the median of 31 timed
// batches of journal.Append. Their product is the journal's cost per
// event. (A difference of two measured event rates cannot hold this
// bound: it moves by more than 12 ns between runs of identical code.)
//
// The count is the gate that works. A plain run's product is about
// 0.3 ns per event (Append's median 85-100 ns on a 2-CPU Xeon), so the
// bound sits ~30x above it and catches only an Append some 40x slower;
// one extra append per packet lands near the bound, on either side of
// it as the box's Append median moves, but always fails the count. The
// bound is not tightened because the race build runs this test too:
// under -race Append's median reads ~1 us and the product ~3.5 ns per
// event, and a bound that must clear that cannot be tight on a plain
// run.
func TestTraceBudget(t *testing.T) {
	const (
		packets     = 500_000
		wantAppends = 12_127
		wantEvents  = 3_485_067
		boundNs     = 12.0
	)
	set := journal.NewSet(0)
	n, step := pipelineLoop(t, set)
	before, start := set.Appended(), n.Engine().Fired()
	for i := 0; i < packets; i++ {
		step()
	}
	n.RunFor(10 * sim.Millisecond)
	appends, events := set.Appended()-before, n.Engine().Fired()-start

	const batch, samples = 1 << 14, 31
	ring := journal.New(1 << 13)
	ns := make([]float64, samples)
	for s := range ns {
		begin := time.Now()
		for k := 0; k < batch; k++ {
			ring.Append(journal.Record(int64(k), 0, k&7, journal.DirIngress, 0, 1, 2, 2))
		}
		ns[s] = float64(time.Since(begin).Nanoseconds()) / batch
	}
	card := stats.NewCDF(ns)
	perEvent := float64(appends) / float64(events)
	cost := perEvent * card.Median()
	t.Logf("%d journal appends in %d simulator events (%.5f per event)", appends, events, perEvent)
	t.Logf("journal.Append: median %.1f ns, quartiles %.1f-%.1f over %d batches of %d",
		card.Median(), card.Quantile(0.25), card.Quantile(0.75), samples, batch)
	t.Logf("journal cost: %.3f ns per event (bound %.0f)", cost, boundNs)

	if appends != wantAppends || events != wantEvents {
		t.Errorf("%d appends in %d events, want exactly %d in %d: a journal stamp or an event was added to or removed from the pipeline",
			appends, events, wantAppends, wantEvents)
	}
	if cost > boundNs {
		t.Errorf("journal adds %.2f ns per simulator event, want at most %.0f", cost, boundNs)
	}
}
