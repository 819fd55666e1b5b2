package emunet_test

// The snapshot-series driver against the loop it replaced in the figure
// harnesses: same seed, same events, same snapshots.

import (
	"reflect"
	"testing"

	"speedlight/internal/emunet"
	"speedlight/internal/packet"
	"speedlight/internal/polling"
	"speedlight/internal/sim"
	"speedlight/internal/topology"
	"speedlight/internal/workload"
)

func seriesNet(t *testing.T, shards int, maxID uint32) *emunet.Network {
	t.Helper()
	ls, err := topology.NewLeafSpine(topology.LeafSpineConfig{
		Leaves: 2, Spines: 2, HostsPerLeaf: 3,
		HostLinkLatency:   sim.Microsecond,
		FabricLinkLatency: sim.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	n, err := emunet.New(emunet.Config{
		Topo: ls.Topology, Seed: 5, Shards: shards, MaxID: maxID, WrapAround: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestSnapshotSeriesMatchesHandRolledLoop(t *testing.T) {
	const (
		count = 12
		gap   = sim.Millisecond
		drain = 30 * sim.Millisecond
	)
	type outcome struct {
		ids     []packet.SeqID
		spreads []sim.Duration
		polls   int
		fired   uint64
	}
	run := func(shards int, driver bool) outcome {
		n := seriesNet(t, shards, 256)
		bg := &workload.Uniform{Net: n, Hosts: n.Topo().HostIDs(), Interval: 2 * sim.Microsecond}
		bg.Start()
		n.RunFor(2 * sim.Millisecond)

		var out outcome
		poller := polling.New(n, polling.Config{})
		sweep := n.Units()
		fire := func(now sim.Time) (packet.SeqID, error) {
			id, err := n.ScheduleSnapshot(now.Add(200 * sim.Microsecond))
			poller.PollAll(sweep, func([]polling.Sample) { out.polls++ })
			return id, err
		}
		if driver {
			out.ids = n.SnapshotSeries(count, gap, drain, fire)
		} else {
			// The loop as the harnesses spelled it: arm, then run.
			for i := 0; i < count; i++ {
				n.Engine().After(gap, func() {
					if id, err := fire(n.Engine().Now()); err == nil {
						out.ids = append(out.ids, id)
					}
				})
				n.RunFor(gap)
			}
			n.RunFor(drain)
		}
		bg.Stop()

		var micros []float64
		for _, id := range out.ids {
			d, ok := n.SyncSpread(id)
			if !ok {
				t.Fatalf("snapshot %d has no sync spread", id)
			}
			out.spreads = append(out.spreads, d)
			micros = append(micros, d.Micros())
		}
		if got := n.SyncSpreadsMicros(out.ids); !reflect.DeepEqual(got, micros) {
			t.Errorf("SyncSpreadsMicros = %v, want %v", got, micros)
		}
		done := n.Completed(out.ids)
		if len(done) != count {
			t.Fatalf("%d of %d snapshots completed", len(done), count)
		}
		for i, g := range done {
			if g.ID != out.ids[i] {
				t.Errorf("Completed[%d] = snapshot %d, want %d", i, g.ID, out.ids[i])
			}
		}
		out.fired = n.Engine().Fired()
		return out
	}
	for _, shards := range []int{0, 2} {
		want, got := run(shards, false), run(shards, true)
		if len(want.ids) != count || want.polls != count {
			t.Fatalf("shards=%d: hand-rolled loop took %d snapshots and %d sweeps, want %d each",
				shards, len(want.ids), want.polls, count)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("shards=%d: driver %+v\nhand-rolled %+v", shards, got, want)
		}
	}
}

// TestSnapshotSeriesSkipsRefusedIDs fills the observer's no-lapping
// window: with 8 IDs and a gap far below the completion time of an
// idle fabric (the 5 ms retry), most of the series is refused. The
// driver must skip those and return only the snapshots that started.
func TestSnapshotSeriesSkipsRefusedIDs(t *testing.T) {
	n := seriesNet(t, 0, 8)
	const count = 40
	refused := 0
	ids := n.SnapshotSeries(count, 10*sim.Microsecond, 100*sim.Millisecond, func(now sim.Time) (packet.SeqID, error) {
		id, err := n.ScheduleSnapshot(now.Add(5 * sim.Microsecond))
		if err != nil {
			refused++
		}
		return id, err
	})
	if refused == 0 || len(ids) == 0 || len(ids)+refused != count {
		t.Fatalf("%d started + %d refused of %d: want some of each", len(ids), refused, count)
	}
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			t.Fatalf("ids not increasing: %v", ids)
		}
	}
	if done := n.Completed(ids); len(done) != len(ids) {
		t.Fatalf("%d of %d started snapshots completed", len(done), len(ids))
	}
}
