package snapstore_test

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"speedlight/internal/control"
	"speedlight/internal/dataplane"
	"speedlight/internal/observer"
	"speedlight/internal/packet"
	"speedlight/internal/snapstore"
	"speedlight/internal/telemetry"
	"speedlight/internal/topology"
)

func unit(node, port int, dir dataplane.Direction) dataplane.UnitID {
	return dataplane.UnitID{Node: topology.NodeID(node), Port: port, Dir: dir}
}

// seal drives one epoch through the store from a unit->value map.
func seal(s *snapstore.Store, id packet.SeqID, values map[dataplane.UnitID]uint64) *snapstore.Epoch {
	g := &observer.GlobalSnapshot{
		ID:         id,
		Results:    make(map[dataplane.UnitID]control.Result, len(values)),
		Consistent: true,
	}
	for u, v := range values {
		g.Results[u] = control.Result{Unit: u, SnapshotID: id, Value: v, Consistent: true}
	}
	return s.Ingest(g, 0)
}

func TestStoreBasic(t *testing.T) {
	s := snapstore.New(snapstore.Config{Retention: 8, CheckpointEvery: 4})
	u0, u1 := unit(0, 0, dataplane.Ingress), unit(0, 1, dataplane.Egress)

	e1 := seal(s, 1, map[dataplane.UnitID]uint64{u0: 10, u1: 20})
	if !e1.IsBase() {
		t.Fatal("first epoch must be a base")
	}
	if e1.DeltaCount() != 2 {
		t.Fatalf("first epoch deltas = %d, want 2", e1.DeltaCount())
	}

	// Unchanged register elided; changed one recorded.
	e2 := seal(s, 2, map[dataplane.UnitID]uint64{u0: 10, u1: 25})
	if e2.IsBase() {
		t.Fatal("second epoch should be delta-only")
	}
	if e2.DeltaCount() != 1 {
		t.Fatalf("second epoch deltas = %d, want 1 (u0 unchanged)", e2.DeltaCount())
	}

	v := s.View()
	if v.Len() != 2 {
		t.Fatalf("view has %d epochs, want 2", v.Len())
	}
	st, err := v.State(2)
	if err != nil {
		t.Fatal(err)
	}
	if r, ok := st.Value(u0); !ok || r.Value != 10 {
		t.Fatalf("u0@2 = %+v, want 10", r)
	}
	if r, ok := st.Value(u1); !ok || r.Value != 25 {
		t.Fatalf("u1@2 = %+v, want 25", r)
	}
	st1, err := v.State(1)
	if err != nil {
		t.Fatal(err)
	}
	if r, ok := st1.Value(u1); !ok || r.Value != 20 {
		t.Fatalf("u1@1 = %+v, want 20", r)
	}
	if s.Sealed() != 2 {
		t.Fatalf("Sealed() = %d, want 2", s.Sealed())
	}
}

func TestStoreDeparture(t *testing.T) {
	s := snapstore.New(snapstore.Config{Retention: 8, CheckpointEvery: 100})
	u0, u1 := unit(0, 0, dataplane.Ingress), unit(0, 1, dataplane.Egress)

	seal(s, 1, map[dataplane.UnitID]uint64{u0: 1, u1: 2})
	seal(s, 2, map[dataplane.UnitID]uint64{u0: 1}) // u1 drops out

	st, err := s.View().State(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Value(u1); ok {
		t.Fatal("u1 should be absent from epoch 2's cut")
	}
	if _, ok := st.Value(u0); !ok {
		t.Fatal("u0 should remain present")
	}

	// Reappearance is a fresh delta even at the old value.
	seal(s, 3, map[dataplane.UnitID]uint64{u0: 1, u1: 2})
	st3, err := s.View().State(3)
	if err != nil {
		t.Fatal(err)
	}
	if r, ok := st3.Value(u1); !ok || r.Value != 2 {
		t.Fatalf("u1@3 = %+v, want present 2", r)
	}
}

func TestStoreDuplicateObserveKeepsFirst(t *testing.T) {
	s := snapstore.New(snapstore.Config{})
	u := unit(1, 0, dataplane.Ingress)
	s.Begin(7, 0)
	s.Observe(u, 100, true)
	s.Observe(u, 999, true)
	s.Seal(0, true, nil, 0)
	st, err := s.View().State(7)
	if err != nil {
		t.Fatal(err)
	}
	if r, _ := st.Value(u); r.Value != 100 {
		t.Fatalf("duplicate observe overwrote: got %d, want 100", r.Value)
	}
}

func TestStoreRetention(t *testing.T) {
	cfg := snapstore.Config{Retention: 4, CheckpointEvery: 16}
	s := snapstore.New(cfg)
	u := unit(0, 0, dataplane.Ingress)

	for i := 1; i <= 10; i++ {
		seal(s, packet.SeqID(i), map[dataplane.UnitID]uint64{u: uint64(i * 100)})
		checkChain(t, s.View(), cfg)
	}
	v := s.View()
	if v.Len() != 4 {
		t.Fatalf("retained %d epochs, want 4", v.Len())
	}
	// Retention 4 sets the cadence: bases at 1, 5 and 9, so the oldest
	// retained epoch (7) reconstructs through hidden epochs 5 and 6.
	if _, hidden, _ := v.Chain(); hidden != 2 {
		t.Fatalf("chain hides %d epochs, want 2 (epochs 5 and 6)", hidden)
	}
	for i := 7; i <= 10; i++ {
		st, err := v.State(packet.SeqID(i))
		if err != nil {
			t.Fatalf("epoch %d: %v", i, err)
		}
		if r, ok := st.Value(u); !ok || r.Value != uint64(i*100) {
			t.Fatalf("u@%d = %+v, want %d", i, r, i*100)
		}
	}
	for _, id := range []packet.SeqID{3, 6} {
		if _, err := v.State(id); err == nil {
			t.Fatalf("evicted epoch %d should not reconstruct", id)
		}
	}
}

// checkChain asserts the view invariant: a nonempty chain starts at a
// base, fewer than min(CheckpointEvery, Retention) evicted epochs ride
// ahead of the retained ones, and no more than Retention of those are
// visible.
func checkChain(t *testing.T, v *snapstore.View, cfg snapstore.Config) {
	t.Helper()
	base, hidden, resident := v.Chain()
	c := min(cfg.CheckpointEvery, cfg.Retention)
	if resident > 0 && !base {
		t.Fatalf("chain of %d epochs does not start at a base", resident)
	}
	if hidden > c-1 || v.Len() > cfg.Retention || resident != hidden+v.Len() {
		t.Fatalf("chain holds %d epochs, %d hidden and %d retained: want at most %d hidden and %d retained",
			resident, hidden, v.Len(), c-1, cfg.Retention)
	}
}

// chainConfigs are the store geometries the chain tests run over:
// retention below, at and above the cadence, every epoch a base, a
// cadence that never fires, and the storm's own.
var chainConfigs = []snapstore.Config{
	{Retention: 1, CheckpointEvery: 16},
	{Retention: 3, CheckpointEvery: 64},
	{Retention: 8, CheckpointEvery: 1 << 30},
	{Retention: 7, CheckpointEvery: 5},
	{Retention: 128, CheckpointEvery: 1},
	{Retention: 256, CheckpointEvery: 16},
}

// TestChainBound seals 2 000 epochs at each chain geometry and holds
// every published chain to checkChain's bound, so to Retention +
// min(CheckpointEvery, Retention) − 1 epochs: eviction never lets it
// grow.
func TestChainBound(t *testing.T) {
	u := unit(0, 0, dataplane.Ingress)
	for _, cfg := range chainConfigs {
		s := snapstore.New(cfg)
		for i := 1; i <= 2000; i++ {
			seal(s, packet.SeqID(i), map[dataplane.UnitID]uint64{u: uint64(i % 3)})
			checkChain(t, s.View(), cfg)
		}
	}
}

func TestOldViewSurvivesCompaction(t *testing.T) {
	s := snapstore.New(snapstore.Config{Retention: 3, CheckpointEvery: 2})
	u := unit(0, 0, dataplane.Ingress)
	seal(s, 1, map[dataplane.UnitID]uint64{u: 11})
	seal(s, 2, map[dataplane.UnitID]uint64{u: 22})
	old := s.View()
	// Push epochs 1 and 2 out of the current retention window.
	for i := 3; i <= 9; i++ {
		seal(s, packet.SeqID(i), map[dataplane.UnitID]uint64{u: uint64(i * 11)})
	}
	if _, err := s.View().State(1); err == nil {
		t.Fatal("epoch 1 should be evicted from the current view")
	}
	// The old view still reconstructs what it retained at capture time.
	st, err := old.State(2)
	if err != nil {
		t.Fatal(err)
	}
	if r, _ := st.Value(u); r.Value != 22 {
		t.Fatalf("old view u@2 = %d, want 22", r.Value)
	}
}

func TestViewDiff(t *testing.T) {
	s := snapstore.New(snapstore.Config{})
	u0, u1, u2 := unit(0, 0, dataplane.Ingress), unit(0, 1, dataplane.Ingress), unit(1, 0, dataplane.Egress)
	seal(s, 1, map[dataplane.UnitID]uint64{u0: 1, u1: 2})
	seal(s, 2, map[dataplane.UnitID]uint64{u0: 1, u1: 5, u2: 7}) // u1 changed, u2 appeared

	diffs, err := s.View().Diff(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(diffs) != 2 {
		t.Fatalf("diff has %d entries, want 2: %+v", len(diffs), diffs)
	}
	if diffs[0].Unit != u1 || diffs[0].From.Value != 2 || diffs[0].To.Value != 5 {
		t.Fatalf("diff[0] = %+v, want u1 2->5", diffs[0])
	}
	if diffs[1].Unit != u2 || diffs[1].From.Present || diffs[1].To.Value != 7 {
		t.Fatalf("diff[1] = %+v, want u2 absent->7", diffs[1])
	}
	if cap(diffs) != len(diffs) {
		t.Fatalf("diff allocated cap %d for %d entries, want exactly its size", cap(diffs), len(diffs))
	}

	seal(s, 3, map[dataplane.UnitID]uint64{u0: 1, u1: 5, u2: 7}) // nothing changed
	for _, pair := range [][2]packet.SeqID{{2, 3}, {3, 2}, {3, 3}} {
		diffs, err := s.View().Diff(pair[0], pair[1])
		if err != nil {
			t.Fatal(err)
		}
		if diffs != nil {
			t.Fatalf("Diff(%d, %d) = %+v, want nil", pair[0], pair[1], diffs)
		}
	}
}

// FuzzViewDiff drives a store through a seal sequence decoded from the
// input — values, departures, units registering late, checkpoints and
// retention eviction — and checks that Diff of every retained pair is
// the register-wise comparison of the two reconstructed cuts: the same
// entries in dense unit order, allocated at exactly their size, nil
// when the cuts agree.
func FuzzViewDiff(f *testing.F) {
	f.Add([]byte{0, 0, 1, 2, 3, 4, 5, 6})
	f.Add([]byte{3, 1, 0, 0, 0, 9, 9, 9, 1, 1, 1, 1, 1, 1, 7, 0, 7, 0, 7, 0})
	f.Add([]byte{1, 7, 5, 10, 15, 20, 25, 30, 1, 2, 3, 4, 5, 6, 1, 2, 3, 4, 5, 6, 0, 0, 0, 0, 0, 0})
	// Retention 1 with a checkpoint every second epoch: the second seal
	// evicts the only base, so the new head must carry its own.
	f.Add([]byte{0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1})
	const nUnits = 6
	units := make([]dataplane.UnitID, nUnits)
	for i := range units {
		units[i] = unit(i/2, i/2, dataplane.Direction(i%2))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		s := snapstore.New(snapstore.Config{Retention: 1 + int(data[0]%8), CheckpointEvery: 1 + int(data[1]%8)})
		data = data[2:]
		var held []heldView
		for id := packet.SeqID(1); len(data) >= nUnits && id <= 64; id++ {
			// A byte per unit: a multiple of five leaves the unit out of
			// the cut (a departure, or a registration still to come),
			// anything else records a value from a small range so
			// unchanged registers are common.
			cut := map[dataplane.UnitID]uint64{}
			for i, b := range data[:nUnits] {
				if b%5 != 0 {
					cut[units[i]] = uint64(b % 3)
				}
			}
			data = data[nUnits:]
			seal(s, id, cut)

			v := s.View()
			for _, ea := range v.Epochs() {
				for _, eb := range v.Epochs() {
					checkDiff(t, v, ea.ID, eb.ID)
				}
			}
			if id%5 == 0 {
				held = append(held, capture(t, v))
			}
		}
		// Views share their hidden prefix with their successors: every
		// held view still answers what it answered when published.
		for _, h := range held {
			h.verify(t)
			for _, ea := range h.v.Epochs() {
				for _, eb := range h.v.Epochs() {
					checkDiff(t, h.v, ea.ID, eb.ID)
				}
			}
		}
	})
}

// heldView is a published view with the cuts it reconstructed then.
type heldView struct {
	v    *snapstore.View
	cuts map[packet.SeqID][]snapstore.Reg
}

func capture(t *testing.T, v *snapstore.View) heldView {
	t.Helper()
	h := heldView{v: v, cuts: map[packet.SeqID][]snapstore.Reg{}}
	for _, e := range v.Epochs() {
		st, err := v.State(e.ID)
		if err != nil {
			t.Fatal(err)
		}
		h.cuts[e.ID] = st.Regs
	}
	return h
}

// verify requires the view to reconstruct every cut it captured.
func (h heldView) verify(t *testing.T) {
	t.Helper()
	for id, want := range h.cuts {
		st, err := h.v.State(id)
		if err != nil {
			t.Fatalf("held view lost epoch %d: %v", id, err)
		}
		if !slices.Equal(st.Regs, want) {
			t.Fatalf("held view epoch %d: %+v, captured %+v", id, st.Regs, want)
		}
	}
}

// checkDiff compares Diff(a, b) with the register-wise comparison of
// State(a) and State(b) over the view's unit table.
func checkDiff(t *testing.T, v *snapstore.View, a, b packet.SeqID) {
	t.Helper()
	sa, err := v.State(a)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := v.State(b)
	if err != nil {
		t.Fatal(err)
	}
	var want []snapstore.RegDiff
	for _, u := range v.Units() {
		ra, _ := sa.Value(u)
		rb, _ := sb.Value(u)
		if ra != rb {
			want = append(want, snapstore.RegDiff{Unit: u, From: ra, To: rb})
		}
	}
	got, err := v.Diff(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != cap(got) {
		t.Fatalf("Diff(%d, %d): len %d, cap %d", a, b, len(got), cap(got))
	}
	if (got == nil) != (want == nil) || !slices.Equal(got, want) {
		t.Fatalf("Diff(%d, %d) = %+v, want %+v", a, b, got, want)
	}
}

func TestEmptyView(t *testing.T) {
	s := snapstore.New(snapstore.Config{})
	v := s.View()
	if v.Len() != 0 || v.Latest() != nil {
		t.Fatal("fresh store should publish an empty view")
	}
	if _, err := v.State(1); err == nil {
		t.Fatal("State on empty view should error")
	}
}

func TestHealthCheckAndLag(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := snapstore.New(snapstore.Config{Registry: reg})
	u := unit(0, 0, dataplane.Ingress)

	var completed uint64
	check := snapstore.HealthCheck(s, func() uint64 { return completed }, 2)

	if err := check(); err != nil {
		t.Fatalf("fresh store should be healthy: %v", err)
	}
	completed = 3 // observer completed 3, store sealed 0 -> lag 3 > 2
	if err := check(); err == nil {
		t.Fatal("lag 3 with max 2 should fail readiness")
	}
	seal(s, 1, map[dataplane.UnitID]uint64{u: 1})
	if err := check(); err != nil { // lag 2 == max 2: healthy
		t.Fatalf("lag at threshold should pass: %v", err)
	}
	s.RecordLag(completed)
	if got := gaugeValue(t, reg, "speedlight_snapstore_lag_epochs"); got != 2 {
		t.Fatalf("lag gauge = %d, want 2", got)
	}
}

func gaugeValue(t *testing.T, reg *telemetry.Registry, name string) int64 {
	t.Helper()
	for _, s := range reg.Gather() {
		if s.Name == name {
			return s.GaugeValue
		}
	}
	t.Fatalf("gauge %s not registered", name)
	return 0
}

// TestDeltaPropertyRandom is the delta-correctness property test: a
// long random campaign of epochs (units churning in and out, values
// repeating and changing) is driven through the store while a naive
// full-materialization reference records every cut. Every retained
// epoch, reconstructed through base + delta chains — including through
// epochs retention has hidden — must match the reference exactly, and
// so must every epoch of every fifth view, checked again at the end.
func TestDeltaPropertyRandom(t *testing.T) {
	configs := []snapstore.Config{
		{Retention: 16, CheckpointEvery: 4},
		{Retention: 7, CheckpointEvery: 5},   // retention not a multiple of cadence
		{Retention: 3, CheckpointEvery: 64},  // retention sets the cadence
		{Retention: 128, CheckpointEvery: 1}, // every epoch a base
	}
	units := make([]dataplane.UnitID, 24)
	for i := range units {
		dir := dataplane.Ingress
		if i%2 == 1 {
			dir = dataplane.Egress
		}
		units[i] = unit(i/6, i%6, dir)
	}
	for ci, cfg := range configs {
		rng := rand.New(rand.NewSource(int64(1000 + ci)))
		s := snapstore.New(cfg)
		reference := map[packet.SeqID]map[dataplane.UnitID]uint64{}
		var held []*snapstore.View
		check := func(v *snapstore.View) {
			t.Helper()
			for _, e := range v.Epochs() {
				want := reference[e.ID]
				st, err := v.State(e.ID)
				if err != nil {
					t.Fatalf("cfg %d: retained epoch %d failed to reconstruct: %v", ci, e.ID, err)
				}
				got := map[dataplane.UnitID]uint64{}
				for i, r := range st.Regs {
					if r.Present {
						got[st.Units[i]] = r.Value
					}
				}
				if len(got) != len(want) {
					t.Fatalf("cfg %d epoch %d: %d present units, want %d", ci, e.ID, len(got), len(want))
				}
				for u, wv := range want {
					if gv, ok := got[u]; !ok || gv != wv {
						t.Fatalf("cfg %d epoch %d unit %v: got %d (present=%v), want %d", ci, e.ID, u, gv, ok, wv)
					}
				}
			}
		}
		for epoch := 1; epoch <= 200; epoch++ {
			id := packet.SeqID(epoch)
			cut := map[dataplane.UnitID]uint64{}
			for _, u := range units {
				if rng.Intn(10) == 0 {
					continue // unit drops out of this cut
				}
				// Small value range forces frequent unchanged registers
				// (the elision path) and frequent changes.
				cut[u] = uint64(rng.Intn(4))
			}
			seal(s, id, cut)
			reference[id] = cut

			// Check every retained epoch against the reference.
			v := s.View()
			check(v)
			if v.Len() > cfg.Retention {
				t.Fatalf("cfg %d: view holds %d epochs, retention %d", ci, v.Len(), cfg.Retention)
			}
			if epoch%5 == 0 {
				held = append(held, v)
			}
		}
		for _, v := range held {
			check(v)
		}
	}
}

// TestObserveSteadyStateAllocs pins the ingestion hot path at zero
// allocations once every unit is registered (the hotalloc analyzer
// enforces the same statically via //speedlight:hotpath).
//
//speedlight:allocgate snapstore.Store.Observe
func TestObserveSteadyStateAllocs(t *testing.T) {
	s := snapstore.New(snapstore.Config{Retention: 4, CheckpointEvery: 4})
	units := make([]dataplane.UnitID, 64)
	for i := range units {
		units[i] = unit(i/8, i%8, dataplane.Ingress)
	}
	// Warm up: register every unit, grow the delta buffer.
	for e := 1; e <= 3; e++ {
		s.Begin(packet.SeqID(e), 0)
		for i, u := range units {
			s.Observe(u, uint64(e*100+i), true)
		}
		s.Seal(0, true, nil, 0)
	}
	s.Begin(100, 0)
	defer s.Seal(0, true, nil, 0)
	var x uint64
	allocs := testing.AllocsPerRun(1000, func() {
		x++
		s.Observe(units[int(x)%len(units)], x, true)
	})
	if allocs != 0 {
		t.Fatalf("Observe allocates %.1f/op in steady state, want 0", allocs)
	}
}

// TestOldViewsSurviveIngest races readers that hold views against a
// writer sealing ten retentions' worth of epochs. Views share their
// chain's hidden prefix with every successor, so each reader captures
// its view's cuts and one diff, checks them against the values the
// writer sealed, and asks the same view again while sealing goes on:
// the answers must not move.
func TestOldViewsSurviveIngest(t *testing.T) {
	cfg := snapstore.Config{Retention: 16, CheckpointEvery: 5}
	units := []dataplane.UnitID{unit(0, 0, dataplane.Ingress), unit(0, 1, dataplane.Egress), unit(1, 0, dataplane.Ingress)}
	// cut is epoch id's sealed content, a pure function of id: units
	// leave and come back, values change every few epochs.
	cut := func(id packet.SeqID) map[dataplane.UnitID]uint64 {
		c := map[dataplane.UnitID]uint64{}
		for i, u := range units {
			if (uint64(id)+uint64(i))%7 != 0 {
				c[u] = (uint64(id) + uint64(i)) / 3
			}
		}
		return c
	}
	matches := func(st *snapstore.State, id packet.SeqID) bool {
		want := cut(id)
		for _, u := range units {
			r, ok := st.Value(u)
			if w, in := want[u]; ok != in || r.Value != w {
				return false
			}
		}
		return true
	}

	s := snapstore.New(cfg)
	seal(s, 1, cut(1))
	// reader queries every retained epoch of fresh views until done,
	// holding each view with one diff it answered, and asks the held
	// views again on every pass and once more after the last seal.
	reader := func(ready func(), done <-chan struct{}) error {
		var held []heldDiff
		recheck := func() error {
			for _, h := range held {
				if d, err := h.v.Diff(h.from, h.to); err != nil || !slices.Equal(d, h.diff) {
					return fmt.Errorf("held view's Diff(%d, %d) moved: %+v, captured %+v (%v)", h.from, h.to, d, h.diff, err)
				}
				if st, err := h.v.State(h.from); err != nil || !matches(st, h.from) {
					return fmt.Errorf("held view lost epoch %d (%v)", h.from, err)
				}
			}
			return nil
		}
		for pass := 0; ; pass++ {
			select {
			case <-done:
				return recheck()
			default:
			}
			v := s.View()
			eps := v.Epochs()
			for _, e := range eps {
				if st, err := v.State(e.ID); err != nil || !matches(st, e.ID) {
					return fmt.Errorf("epoch %d reconstructs wrong (%v)", e.ID, err)
				}
			}
			from, to := eps[0].ID, eps[len(eps)-1].ID
			d, err := v.Diff(from, to)
			if err != nil {
				return err
			}
			held = append(held[max(0, len(held)-63):], heldDiff{v, from, to, d})
			if err := recheck(); err != nil {
				return err
			}
			if pass == 0 {
				ready()
			}
		}
	}
	var started sync.WaitGroup
	done := make(chan struct{})
	errs := make(chan error, 4)
	for r := 0; r < 4; r++ {
		started.Add(1)
		go func() {
			ready := sync.OnceFunc(started.Done)
			defer ready() // a reader failing its first pass
			errs <- reader(ready, done)
		}()
	}
	started.Wait()
	for id := packet.SeqID(2); id <= packet.SeqID(10*cfg.Retention); id++ {
		seal(s, id, cut(id))
	}
	close(done)
	for r := 0; r < 4; r++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// heldDiff is a view a reader holds, with a diff it answered.
type heldDiff struct {
	v        *snapstore.View
	from, to packet.SeqID
	diff     []snapstore.RegDiff
}
