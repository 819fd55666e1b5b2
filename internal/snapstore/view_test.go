package snapstore

import (
	"math/rand"
	"slices"
	"testing"

	"speedlight/internal/dataplane"
	"speedlight/internal/packet"
	"speedlight/internal/topology"
)

// raceEnabled is set under the race detector, whose sync.Pool drops a
// share of what is put back.
var raceEnabled bool

// forwardReplay is the reconstruction resolve replaced: copy the
// nearest base at or before chain index i, then apply every delta list
// after it, up to and including i's. Kept as the oracle resolve is held
// to.
func forwardReplay(v *View, i int) []Reg {
	b := i
	for !v.epochs[b].IsBase() {
		b--
	}
	regs := make([]Reg, v.epochs[i].nUnits)
	copy(regs, v.epochs[b].base)
	for j := b + 1; j <= i; j++ {
		for _, d := range v.epochs[j].deltas {
			if d.Present {
				regs[d.Unit] = Reg{Value: d.Value, Consistent: d.Consistent, Present: true}
			} else {
				regs[d.Unit] = Reg{}
			}
		}
	}
	return regs
}

// sealRandom seals one epoch of id over the first `registered` units:
// about a tenth leave the cut, and values come from a small range so
// unchanged registers are common.
func sealRandom(s *Store, rng *rand.Rand, id packet.SeqID, units []dataplane.UnitID, registered int) {
	s.Begin(id, 0)
	for _, u := range units[:registered] {
		if rng.Intn(10) != 0 {
			s.Observe(u, uint64(rng.Intn(4)), rng.Intn(8) != 0)
		}
	}
	s.Seal(0, true, nil, 0)
}

func testUnits(n int) []dataplane.UnitID {
	units := make([]dataplane.UnitID, n)
	for i := range units {
		units[i] = dataplane.UnitID{Node: topology.NodeID(i / 64), Port: i % 64 / 2, Dir: dataplane.Direction(i % 2)}
	}
	return units
}

// TestResolveMatchesForwardReplay holds the backward walk to the
// forward replay at every chain index, hidden epochs included, after
// every seal: departures, returns and units registering late, at each
// chain geometry, plus a cut too wide for resolve's stack bitset.
func TestResolveMatchesForwardReplay(t *testing.T) {
	cases := []struct {
		cfg          Config
		units, seals int
	}{
		{Config{Retention: 1, CheckpointEvery: 16}, 24, 300},
		{Config{Retention: 3, CheckpointEvery: 64}, 24, 300},
		{Config{Retention: 8, CheckpointEvery: 1 << 30}, 24, 300},
		{Config{Retention: 7, CheckpointEvery: 5}, 24, 300},
		{Config{Retention: 128, CheckpointEvery: 1}, 24, 300},
		{Config{Retention: 256, CheckpointEvery: 16}, 24, 300},
		{Config{Retention: 6, CheckpointEvery: 4}, 1100, 30},
	}
	for ci, c := range cases {
		rng := rand.New(rand.NewSource(int64(ci)))
		s := New(c.cfg)
		units := testUnits(c.units)
		for e := 1; e <= c.seals; e++ {
			// A unit registers on its first observation: the table grows
			// over the first third of the seals.
			registered := min(c.units, c.units*3*e/c.seals+1)
			sealRandom(s, rng, packet.SeqID(e), units, registered)
			v := s.View()
			for i := range v.epochs {
				got := make([]Reg, v.epochs[i].nUnits)
				v.resolve(got, i)
				if want := forwardReplay(v, i); !slices.Equal(got, want) {
					t.Fatalf("case %d seal %d: chain index %d (epoch %d) resolves to %v, forward replay %v",
						ci, e, i, v.epochs[i].ID, got, want)
				}
			}
		}
	}
}

// TestQueryAllocs pins the queries' allocations in steady state, at
// every distance from a base: resolve into a caller's buffer allocates
// nothing, State allocates its cut and its header, and Diff only its
// result — nothing at all when the cuts agree.
//
//speedlight:allocgate snapstore.View.resolve
func TestQueryAllocs(t *testing.T) {
	const every = 16
	s := New(Config{Retention: 64, CheckpointEvery: every})
	units := testUnits(576)
	rng := rand.New(rand.NewSource(1))
	for e := 1; e <= 100; e++ {
		sealRandom(s, rng, packet.SeqID(e), units, len(units))
	}
	// Epoch 101 repeats epoch 100's cut.
	s.Begin(101, 0)
	st, _ := s.View().State(100)
	for i, r := range st.Regs {
		if r.Present {
			s.Observe(st.Units[i], r.Value, r.Consistent)
		}
	}
	s.Seal(0, true, nil, 0)

	v := s.View()
	oldest := v.Epochs()[0].ID
	dst := make([]Reg, len(units))
	for i := len(v.epochs) - every; i < len(v.epochs); i++ {
		id := v.epochs[i].ID
		if n := testing.AllocsPerRun(100, func() { v.resolve(dst, i) }); n != 0 {
			t.Errorf("resolve(epoch %d) allocates %.0f, want 0", id, n)
		}
		if n := testing.AllocsPerRun(100, func() { v.State(id) }); n != 2 {
			t.Errorf("State(%d) allocates %.0f, want 2 (the cut and its header)", id, n)
		}
		if raceEnabled {
			continue
		}
		if n := testing.AllocsPerRun(100, func() { v.Diff(id, oldest) }); n != 1 {
			t.Errorf("Diff(%d, %d) allocates %.0f, want 1 (the result)", id, oldest, n)
		}
	}
	if raceEnabled {
		return
	}
	for _, pair := range [][2]packet.SeqID{{100, 101}, {90, 90}} {
		if n := testing.AllocsPerRun(100, func() { v.Diff(pair[0], pair[1]) }); n != 0 {
			t.Errorf("Diff(%d, %d) of agreeing cuts allocates %.0f, want 0", pair[0], pair[1], n)
		}
	}
}
