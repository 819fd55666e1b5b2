package snapstore

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"speedlight/internal/control"
	"speedlight/internal/dataplane"
	"speedlight/internal/observer"
	"speedlight/internal/packet"
	"speedlight/internal/sim"
	"speedlight/internal/topology"
)

// ingestSorted is the collect-sort-observe Ingest that the order walk
// replaced: gather the snapshot's keys, sort them canonically, look
// each one up again and Observe it. Kept as the reference the new
// Ingest is held to, byte for byte.
func ingestSorted(s *Store, g *observer.GlobalSnapshot, sync sim.Duration) *Epoch {
	s.Begin(g.ID, g.ScheduledAt)
	keys := make([]dataplane.UnitID, 0, len(g.Results))
	for u := range g.Results {
		keys = append(keys, u)
	}
	sort.Slice(keys, func(a, b int) bool { return unitLess(keys[a], keys[b]) })
	for _, u := range keys {
		res := g.Results[u]
		s.Observe(u, res.Value, res.Consistent)
	}
	return s.Seal(g.CompletedAt, g.Consistent, g.Excluded, sync)
}

// TestIngestMatchesSortedReference feeds two stores the same seeded
// history — devices attaching, leaving and returning, registers
// changing value and consistency — one through Ingest, one through the
// sorted reference, and requires the same epochs (delta order and bases
// included), the same unit table and the same query answers.
func TestIngestMatchesSortedReference(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := Config{Retention: 3 + rng.Intn(12), CheckpointEvery: 1 + rng.Intn(6)}
		got, want := New(cfg), New(cfg)

		// Devices of different widths, attached in an order unrelated to
		// their node numbers so dense indices and canonical order differ.
		const devices = 9
		ports := make([]int, devices)
		present := make([]bool, devices)
		for d := range ports {
			ports[d] = 1 + rng.Intn(4)
		}
		values := map[dataplane.UnitID]uint64{}

		for e := 1; e <= 80; e++ {
			for d := range present {
				if rng.Intn(6) == 0 {
					present[d] = !present[d]
				}
			}
			g := &observer.GlobalSnapshot{
				ID:          packet.SeqID(e),
				Results:     map[dataplane.UnitID]control.Result{},
				Consistent:  true,
				ScheduledAt: sim.Time(e) * 100,
				CompletedAt: sim.Time(e)*100 + 7,
			}
			for d, in := range present {
				if !in {
					g.Excluded = append(g.Excluded, topology.NodeID(d))
					continue
				}
				for p := 0; p < ports[d]; p++ {
					for _, dir := range []dataplane.Direction{dataplane.Ingress, dataplane.Egress} {
						u := dataplane.UnitID{Node: topology.NodeID(d), Port: p, Dir: dir}
						if rng.Intn(3) == 0 {
							values[u] += uint64(1 + rng.Intn(5))
						}
						if rng.Intn(7) == 0 {
							continue // one unit missing from the cut
						}
						ok := rng.Intn(10) != 0
						g.Consistent = g.Consistent && ok
						g.Results[u] = control.Result{Unit: u, SnapshotID: g.ID, Value: values[u], Consistent: ok}
					}
				}
			}
			ge, we := got.Ingest(g, sim.Duration(e)), ingestSorted(want, g, sim.Duration(e))
			if !reflect.DeepEqual(ge, we) {
				t.Fatalf("seed %d epoch %d: sealed epochs differ\n got %+v\nwant %+v", seed, e, ge, we)
			}
			if !reflect.DeepEqual(got.units, want.units) || !reflect.DeepEqual(got.prev, want.prev) {
				t.Fatalf("seed %d epoch %d: unit tables differ\n got %v\nwant %v", seed, e, got.units, want.units)
			}
			checkOrder(t, got)

			gv, wv := got.View(), want.View()
			if !reflect.DeepEqual(gv.Epochs(), wv.Epochs()) {
				t.Fatalf("seed %d epoch %d: views retain different epochs", seed, e)
			}
			for _, ep := range gv.Epochs() {
				gs, _ := gv.State(ep.ID)
				ws, _ := wv.State(ep.ID)
				if !reflect.DeepEqual(gs, ws) {
					t.Fatalf("seed %d epoch %d: State(%d) differs", seed, e, ep.ID)
				}
			}
			from := gv.Epochs()[rng.Intn(gv.Len())].ID
			gd, gerr := gv.Diff(from, g.ID)
			wd, werr := wv.Diff(from, g.ID)
			if gerr != nil || werr != nil || !reflect.DeepEqual(gd, wd) {
				t.Fatalf("seed %d epoch %d: Diff(%d, %d) differs (%v, %v)", seed, e, from, g.ID, gerr, werr)
			}
		}
	}
}

// checkOrder asserts order is a permutation of the dense indices in
// canonical unit order.
func checkOrder(t *testing.T, s *Store) {
	t.Helper()
	if len(s.order) != len(s.units) {
		t.Fatalf("order lists %d of %d units", len(s.order), len(s.units))
	}
	for i := 1; i < len(s.order); i++ {
		if !unitLess(s.units[s.order[i-1]], s.units[s.order[i]]) {
			t.Fatalf("order not canonical at %d: %v then %v", i, s.units[s.order[i-1]], s.units[s.order[i]])
		}
	}
}

// TestIngestSteadyStateAllocs pins Ingest's steady-state cost to the
// per-epoch objects and to nothing that grows with the fabric: the
// count is the same at 64 units and at 576.
//
//speedlight:allocgate snapstore.Store.observe
func TestIngestSteadyStateAllocs(t *testing.T) {
	perEpoch := func(units int) float64 {
		s := New(Config{Retention: 8, CheckpointEvery: 1 << 30})
		gs := [2]*observer.GlobalSnapshot{}
		for k := range gs {
			gs[k] = &observer.GlobalSnapshot{Results: map[dataplane.UnitID]control.Result{}, Consistent: true}
			for i := 0; i < units; i++ {
				u := dataplane.UnitID{Node: topology.NodeID(i / 64), Port: i % 64 / 2, Dir: dataplane.Direction(i % 2)}
				gs[k].Results[u] = control.Result{Unit: u, Value: uint64(k), Consistent: true}
			}
		}
		id := packet.SeqID(0)
		ingest := func() {
			id++
			gs[id&1].ID = id
			s.Ingest(gs[id&1], 0)
		}
		for i := 0; i < 16; i++ { // fill retention, warm the tables
			ingest()
		}
		return testing.AllocsPerRun(200, ingest)
	}
	small, large := perEpoch(64), perEpoch(576)
	if small != large {
		t.Fatalf("Ingest allocates %.1f/epoch at 64 units but %.1f at 576: something is per unit", small, large)
	}
	// The epoch, its delta buffer, the view and its epoch list: evicting
	// an epoch copies nothing. The base that Retention 8 makes of every
	// eighth epoch adds an eighth of an object, which the mean floors.
	if small > 4 {
		t.Fatalf("Ingest allocates %.0f/epoch in steady state, want at most 4", small)
	}
}
