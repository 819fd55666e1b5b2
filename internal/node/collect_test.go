package node

import (
	"sync"
	"testing"

	"speedlight/internal/control"
	"speedlight/internal/journal"
	"speedlight/internal/observer"
	"speedlight/internal/packet"
	"speedlight/internal/sim"
)

type anomaly struct {
	reason string
	id     packet.SeqID
}

// testCollector registers both test switches with a collector whose
// sink records anomalies.
func testCollector(t *testing.T, cfg observer.Config) (*Collector, [2]*Switch, *[]anomaly) {
	t.Helper()
	sws, _ := testSwitches(t, false, nil)
	var got []anomaly
	sink := &Sink{OnAnomaly: func(reason string, id packet.SeqID, _ []journal.Event) {
		got = append(got, anomaly{reason, id})
	}}
	cfg.MaxID, cfg.WrapAround = 16, true
	c, err := NewCollector(cfg, sink)
	if err != nil {
		t.Fatal(err)
	}
	for _, sw := range sws {
		c.Register(sw)
	}
	return c, sws, &got
}

// report ships one result per unit of sw for snapshot id.
func report(c *Collector, sw *Switch, id packet.SeqID, consistent bool, now sim.Time) {
	for _, u := range sw.DP.UnitIDs() {
		c.Result(control.Result{Unit: u, SnapshotID: id, Consistent: consistent}, now)
	}
}

func TestCollectorYieldsEachSnapshotOnce(t *testing.T) {
	c, sws, anomalies := testCollector(t, observer.Config{})
	id1, ch1, err := c.Begin(1)
	if err != nil {
		t.Fatal(err)
	}
	id2, ch2, err := c.Begin(2)
	if err != nil {
		t.Fatal(err)
	}
	// The later snapshot finishes first; each channel gets its own.
	for _, id := range []packet.SeqID{id2, id1} {
		report(c, sws[0], id, true, 3)
		select {
		case g := <-ch1:
			t.Fatalf("snapshot %d delivered with a device outstanding", g.ID)
		default:
		}
		report(c, sws[1], id, true, 4)
		report(c, sws[1], id, true, 5) // duplicates are the observer's to ignore
	}
	for _, sub := range []struct {
		id packet.SeqID
		ch <-chan *observer.GlobalSnapshot
	}{{id1, ch1}, {id2, ch2}} {
		g := <-sub.ch
		if g == nil || g.ID != sub.id || !g.Consistent || len(g.Results) != 12 {
			t.Fatalf("subscription %d yielded %+v", sub.id, g)
		}
		if g, open := <-sub.ch; open || g != nil {
			t.Errorf("subscription %d yielded a second value", sub.id)
		}
	}

	snaps := c.Snapshots()
	if len(snaps) != 2 || snaps[0].ID != id2 || snaps[1].ID != id1 {
		t.Fatalf("Snapshots() = %v, want completion order [%d %d]", snaps, id2, id1)
	}
	snaps[0] = nil // the caller's copy
	if again := c.Snapshots(); again[0] == nil || again[0].ID != id2 {
		t.Error("Snapshots() handed out the collector's own slice")
	}
	if c.sink.CompletedEpochs() != 2 {
		t.Errorf("CompletedEpochs() = %d, want 2", c.sink.CompletedEpochs())
	}
	if len(*anomalies) != 0 {
		t.Errorf("clean snapshots fired %v", *anomalies)
	}
}

// TestCollectorAnomalies holds the two finalization reasons to the
// bytes every runtime used to format for itself.
func TestCollectorAnomalies(t *testing.T) {
	c, sws, anomalies := testCollector(t, observer.Config{RetryAfter: 10, ExcludeAfter: 100})

	id1, ch1, _ := c.Begin(0)
	report(c, sws[0], id1, true, 1)
	report(c, sws[1], id1, false, 2)
	if g := <-ch1; g.Consistent {
		t.Error("snapshot 1 assembled consistent from inconsistent results")
	}

	id2, ch2, _ := c.Begin(1000)
	report(c, sws[0], id2, true, 1001)
	if acts := c.Timeouts(1010); len(acts) != 1 || len(acts[0].Retry) != 1 || acts[0].Retry[0] != sws[1].DP.Node() {
		t.Errorf("Timeouts at the retry age = %+v, want one retry of switch %d", acts, sws[1].DP.Node())
	}
	if acts := c.Timeouts(1100); len(acts) != 1 || len(acts[0].Excluded) != 1 {
		t.Errorf("Timeouts at the exclusion age = %+v, want one exclusion", acts)
	}
	if g := <-ch2; len(g.Excluded) != 1 || len(g.Results) != 8 {
		t.Errorf("snapshot 2: excluded %v with %d results, want switch 1 out and 8 results", g.Excluded, len(g.Results))
	}

	want := []anomaly{
		{"snapshot 1 finalized inconsistent", id1},
		{"snapshot 2 finalized with 1 device(s) excluded", id2},
	}
	if len(*anomalies) != 2 || (*anomalies)[0] != want[0] || (*anomalies)[1] != want[1] {
		t.Errorf("anomalies = %q, want %q", *anomalies, want)
	}
}

// TestCollectorConcurrent drives the four entry points from four
// goroutines, as live and wire do; run under -race.
func TestCollectorConcurrent(t *testing.T) {
	c, sws, anomalies := testCollector(t, observer.Config{RetryAfter: 1})
	const snapshots = 200
	type sub struct {
		id packet.SeqID
		ch <-chan *observer.GlobalSnapshot
	}
	begun := make(chan sub) // unbuffered: at most two snapshots are open, inside the ID window
	stop := make(chan struct{})
	var wg, pollers sync.WaitGroup

	wg.Add(2)
	go func() { // the caller of TakeSnapshot
		defer wg.Done()
		defer close(begun)
		for i := 0; i < snapshots; i++ {
			id, ch, err := c.Begin(sim.Time(i))
			if err != nil {
				t.Errorf("Begin %d: %v", i, err)
				return
			}
			begun <- sub{id, ch}
		}
	}()
	go func() { // the result path
		defer wg.Done()
		for s := range begun {
			report(c, sws[0], s.id, true, sim.Time(s.id))
			report(c, sws[1], s.id, true, sim.Time(s.id))
			if g := <-s.ch; g.ID != s.id {
				t.Errorf("subscription %d yielded snapshot %d", s.id, g.ID)
			}
		}
	}()
	pollers.Add(2)
	go func() { // the retry timer
		defer pollers.Done()
		for now := sim.Time(0); ; now++ {
			select {
			case <-stop:
				return
			default:
				c.Timeouts(now)
			}
		}
	}()
	go func() { // a reader
		defer pollers.Done()
		last := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			if n := len(c.Snapshots()); n < last {
				t.Errorf("Snapshots() shrank from %d to %d", last, n)
			} else {
				last = n
			}
		}
	}()
	wg.Wait()
	close(stop)
	pollers.Wait()

	if got := len(c.Snapshots()); got != snapshots {
		t.Errorf("%d snapshots completed, want %d", got, snapshots)
	}
	if len(*anomalies) != 0 {
		t.Errorf("anomalies: %v", *anomalies)
	}
}
