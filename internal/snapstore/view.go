package snapstore

import (
	"fmt"

	"speedlight/internal/dataplane"
	"speedlight/internal/packet"
)

// View is an immutable catalogue of sealed epochs, published atomically
// per seal. A view taken once stays valid and internally consistent
// forever: epochs are never mutated after sealing and the epochs slice
// is rebuilt (never appended in place) on every publish. The zero View
// is an empty history.
//
// View invariant: epochs[0], when present, always carries a base, so
// every retained epoch reconstructs without leaving the view.
type View struct {
	epochs []*Epoch // seal order (ascending Seq)
	units  []dataplane.UnitID
}

// Len returns the number of retained epochs.
func (v *View) Len() int { return len(v.epochs) }

// Epochs returns the retained epochs in seal order. The slice is
// shared and must not be modified.
func (v *View) Epochs() []*Epoch { return v.epochs }

// Units returns the store's dense unit table at publish time. Indices
// are stable for the life of the store; the slice is shared and must
// not be modified.
func (v *View) Units() []dataplane.UnitID { return v.units }

// Latest returns the most recently sealed epoch, or nil when empty.
func (v *View) Latest() *Epoch {
	if len(v.epochs) == 0 {
		return nil
	}
	return v.epochs[len(v.epochs)-1]
}

// find returns the index of the epoch with the given snapshot ID, or
// -1 when it is not retained. Scans from the newest end: queries skew
// heavily toward recent epochs.
func (v *View) find(id packet.SeqID) int {
	for i := len(v.epochs) - 1; i >= 0; i-- {
		if v.epochs[i].ID == id {
			return i
		}
	}
	return -1
}

// Epoch returns the retained epoch with the given snapshot ID.
func (v *View) Epoch(id packet.SeqID) (*Epoch, bool) {
	if i := v.find(id); i >= 0 {
		return v.epochs[i], true
	}
	return nil, false
}

// State is one epoch's fully reconstructed consistent cut.
type State struct {
	// Epoch is the cut's metadata (immutable, shared with the view).
	Epoch *Epoch
	// Units is the dense unit table; Regs is parallel to it. Units
	// beyond the epoch's registration horizon read absent.
	Units []dataplane.UnitID
	Regs  []Reg
}

// Value returns one unit's register in the cut.
func (s *State) Value(u dataplane.UnitID) (Reg, bool) {
	for i, cand := range s.Units {
		if cand == u {
			if i >= len(s.Regs) || !s.Regs[i].Present {
				return Reg{}, false
			}
			return s.Regs[i], true
		}
	}
	return Reg{}, false
}

// State reconstructs the consistent cut at the epoch with the given
// snapshot ID: the nearest base at or before it, plus every delta set
// up to and including it. The returned Regs slice is freshly
// allocated and owned by the caller.
func (v *View) State(id packet.SeqID) (*State, error) {
	i := v.find(id)
	if i < 0 {
		return nil, fmt.Errorf("snapstore: epoch %d not retained", id)
	}
	return v.stateAt(i), nil
}

// stateAt reconstructs the cut at epoch index i. The view invariant
// (epochs[0] is a base) guarantees the backward walk terminates.
func (v *View) stateAt(i int) *State {
	e := v.epochs[i]
	// Walk back to the nearest base.
	b := i
	for b > 0 && !v.epochs[b].IsBase() {
		b--
	}
	base := v.epochs[b]
	if base.base == nil {
		panic(fmt.Sprintf("snapstore: view invariant broken — no base at or before epoch %d", e.ID))
	}
	regs := make([]Reg, e.nUnits)
	copy(regs, base.base)
	// Apply delta sets forward, (b, i]. Applying epoch b's own deltas
	// would double-apply: a base already includes them.
	for j := b + 1; j <= i; j++ {
		for _, d := range v.epochs[j].deltas {
			if int(d.Unit) >= len(regs) {
				continue // registered after e sealed; absent from e's cut
			}
			if d.Present {
				regs[d.Unit] = Reg{Value: d.Value, Consistent: d.Consistent, Present: true}
			} else {
				regs[d.Unit] = Reg{}
			}
		}
	}
	return &State{Epoch: e, Units: v.units, Regs: regs}
}

// RegDiff is one unit's register change between two cuts.
type RegDiff struct {
	Unit     dataplane.UnitID
	From, To Reg
}

// reg returns the cut's register at dense index i; an index past the
// epoch's registration horizon reads absent.
func (s *State) reg(i int) Reg {
	if i < len(s.Regs) {
		return s.Regs[i]
	}
	return Reg{}
}

// Diff reconstructs both cuts and returns the registers that differ,
// in dense unit order, or nil when none do. from and to may be in
// either order and need not be adjacent. The result is allocated once,
// at its final size: the differing registers are counted first.
func (v *View) Diff(from, to packet.SeqID) ([]RegDiff, error) {
	a, err := v.State(from)
	if err != nil {
		return nil, err
	}
	b, err := v.State(to)
	if err != nil {
		return nil, err
	}
	n := max(len(a.Regs), len(b.Regs))
	count := 0
	for i := 0; i < n; i++ {
		if a.reg(i) != b.reg(i) {
			count++
		}
	}
	if count == 0 {
		return nil, nil
	}
	out := make([]RegDiff, 0, count)
	for i := 0; i < n; i++ {
		if ra, rb := a.reg(i), b.reg(i); ra != rb {
			out = append(out, RegDiff{Unit: v.units[i], From: ra, To: rb})
		}
	}
	return out, nil
}
