package node

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"speedlight/internal/control"
	"speedlight/internal/dataplane"
	"speedlight/internal/journal"
	"speedlight/internal/observer"
	"speedlight/internal/packet"
	"speedlight/internal/sim"
	"speedlight/internal/topology"
)

type anomaly struct {
	reason string
	id     packet.SeqID
}

// testFabric builds a Fabric over the two test switches' topology whose
// sink records anomalies, with the given recovery timers. Nobody drives
// the switches: the tests hand the Fabric their results themselves.
func testFabric(t *testing.T, retryAfter, excludeAfter sim.Duration) (*Fabric, [2]*Switch, *[]anomaly) {
	t.Helper()
	var got []anomaly
	sink := &Sink{OnAnomaly: func(reason string, id packet.SeqID, _ []journal.Event) {
		got = append(got, anomaly{reason, id})
	}}
	f, err := NewFabric(FabricConfig{
		Topo: testTopo(t), DP: dataplane.Config{MaxID: 16, WrapAround: true},
		RetryAfter: retryAfter, ExcludeAfter: excludeAfter, Sink: sink,
		Attach: func(*topology.Switch, *dataplane.Config) (Host, func(control.Result), error) {
			h := &fakeHost{quiet: true}
			return h, h.onResult, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return f, [2]*Switch{f.Switch(0), f.Switch(1)}, &got
}

// report ships one result per unit of sw for snapshot id.
func report(f *Fabric, sw *Switch, id packet.SeqID, consistent bool, now sim.Time) {
	for _, u := range sw.DP.UnitIDs() {
		f.Result(control.Result{Unit: u, SnapshotID: id, Consistent: consistent}, now)
	}
}

func TestSinkYieldsEachSnapshotOnce(t *testing.T) {
	f, sws, anomalies := testFabric(t, 0, 0)
	id1, ch1, err := f.Begin(1)
	if err != nil {
		t.Fatal(err)
	}
	id2, ch2, err := f.Begin(2)
	if err != nil {
		t.Fatal(err)
	}
	// The later snapshot finishes first; each channel gets its own.
	for _, id := range []packet.SeqID{id2, id1} {
		report(f, sws[0], id, true, 3)
		select {
		case g := <-ch1:
			t.Fatalf("snapshot %d delivered with a device outstanding", g.ID)
		default:
		}
		report(f, sws[1], id, true, 4)
		report(f, sws[1], id, true, 5) // duplicates are the observer's to ignore
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

	snaps := f.Snapshots()
	if len(snaps) != 2 || snaps[0].ID != id2 || snaps[1].ID != id1 {
		t.Fatalf("Snapshots() = %v, want completion order [%d %d]", snaps, id2, id1)
	}
	snaps[0] = nil // the caller's copy
	if again := f.Snapshots(); again[0] == nil || again[0].ID != id2 {
		t.Error("Snapshots() handed out the fabric's own slice")
	}
	if f.CompletedEpochs() != 2 {
		t.Errorf("CompletedEpochs() = %d, want 2", f.CompletedEpochs())
	}
	if len(*anomalies) != 0 {
		t.Errorf("clean snapshots fired %v", *anomalies)
	}
}

// TestSinkAnomalies holds the two finalization reasons to the bytes
// every runtime used to format for itself, the retry to once per device
// at its age, and the exclusion to the device still silent at its age.
func TestSinkAnomalies(t *testing.T) {
	f, sws, anomalies := testFabric(t, 10, 200)

	id1, ch1, _ := f.Begin(0)
	report(f, sws[0], id1, true, 1)
	report(f, sws[1], id1, false, 2)
	if g := <-ch1; g.Consistent {
		t.Error("snapshot 1 assembled consistent from inconsistent results")
	}

	id2, ch2, _ := f.Begin(1000)
	report(f, sws[0], id2, true, 1001)
	var relayed []string
	relay := func(dev topology.NodeID, id packet.SeqID) {
		relayed = append(relayed, fmt.Sprintf("sw%d id%d", dev, id))
	}
	for _, now := range []sim.Time{1009, 1010, 1100, 1199} {
		f.Retries(now, relay)
	}
	if want := []string{fmt.Sprintf("sw%d id%d", sws[1].DP.Node(), id2)}; !reflect.DeepEqual(relayed, want) {
		t.Errorf("Retries relayed %v, want %v: at the retry age, once", relayed, want)
	}
	select {
	case g := <-ch2:
		t.Fatalf("snapshot 2 finalized before its exclusion age: excluded %v", g.Excluded)
	default:
	}
	f.Retries(1200, relay)
	if g := <-ch2; !reflect.DeepEqual(g.Excluded, []topology.NodeID{sws[1].DP.Node()}) || len(g.Results) != 8 {
		t.Errorf("snapshot 2 finalized with %v excluded and %d results, want switch 1 and switch 0's 8", g.Excluded, len(g.Results))
	}

	want := []anomaly{
		{"snapshot 1 finalized inconsistent", id1},
		{"snapshot 2 finalized with 1 device(s) excluded", id2},
	}
	if len(*anomalies) != 2 || (*anomalies)[0] != want[0] || (*anomalies)[1] != want[1] {
		t.Errorf("anomalies = %q, want %q", *anomalies, want)
	}
}

// TestSinkConcurrent drives the four entry points from four goroutines,
// as live and wire do; run under -race. Exclusion is off: the retry
// timer's clock runs far ahead of Begin's.
func TestSinkConcurrent(t *testing.T) {
	f, sws, anomalies := testFabric(t, 1, -1)
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
			id, ch, err := f.Begin(sim.Time(i))
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
			report(f, sws[0], s.id, true, sim.Time(s.id))
			report(f, sws[1], s.id, true, sim.Time(s.id))
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
				f.Retries(now, func(topology.NodeID, packet.SeqID) {})
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
			if n := len(f.Snapshots()); n < last {
				t.Errorf("Snapshots() shrank from %d to %d", last, n)
			} else {
				last = n
			}
		}
	}()
	wg.Wait()
	close(stop)
	pollers.Wait()

	if got := len(f.Snapshots()); got != snapshots {
		t.Errorf("%d snapshots completed, want %d", got, snapshots)
	}
	if len(*anomalies) != 0 {
		t.Errorf("anomalies: %v", *anomalies)
	}
}
