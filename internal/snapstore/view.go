package snapstore

import (
	"fmt"
	"sync"

	"speedlight/internal/dataplane"
	"speedlight/internal/packet"
)

// View is an immutable catalogue of sealed epochs, published atomically
// per seal. A view taken once stays valid and internally consistent
// forever: epochs are never mutated after sealing and the epochs slice
// is rebuilt (never appended in place) on every publish. The zero View
// is an empty history.
//
// A view is a chain that starts at a base: epochs[lo:] are the retained
// epochs, and the hidden epochs[:lo] are evicted ones the oldest
// retained epoch still reconstructs through (fewer than
// min(CheckpointEvery, Retention) of them). Every retained epoch
// therefore reconstructs without leaving the view.
type View struct {
	epochs []*Epoch // seal order (ascending Seq); epochs[0] is a base
	lo     int      // index of the first retained epoch
	units  []dataplane.UnitID
}

// Len returns the number of retained epochs.
func (v *View) Len() int { return len(v.epochs) - v.lo }

// Epochs returns the retained epochs in seal order. The slice is
// shared and must not be modified.
func (v *View) Epochs() []*Epoch { return v.epochs[v.lo:] }

// Units returns the store's dense unit table at publish time. Indices
// are stable for the life of the store; the slice is shared and must
// not be modified.
func (v *View) Units() []dataplane.UnitID { return v.units }

// Latest returns the most recently sealed epoch, or nil when empty.
func (v *View) Latest() *Epoch {
	if v.Len() == 0 {
		return nil
	}
	return v.epochs[len(v.epochs)-1]
}

// find returns the index of the epoch with the given snapshot ID, or
// -1 when it is not retained. Scans from the newest end: queries skew
// heavily toward recent epochs.
func (v *View) find(id packet.SeqID) int {
	for i := len(v.epochs) - 1; i >= v.lo; i-- {
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
// snapshot ID (see resolve). The returned Regs slice is freshly
// allocated and owned by the caller.
func (v *View) State(id packet.SeqID) (*State, error) {
	i := v.find(id)
	if i < 0 {
		return nil, notRetained(id)
	}
	return v.stateAt(i), nil
}

func notRetained(id packet.SeqID) error {
	return fmt.Errorf("snapstore: epoch %d not retained", id)
}

// stateAt reconstructs the cut at chain index i.
func (v *View) stateAt(i int) *State {
	regs := make([]Reg, v.epochs[i].nUnits)
	v.resolve(regs, i)
	return &State{Epoch: v.epochs[i], Units: v.units, Regs: regs}
}

// resolve writes the cut at chain index j into dst, which is
// epochs[j].nUnits long. It walks back from j and sets each register
// from the newest delta that names it, until every register is set or
// it reaches a base, which supplies the registers still unset. The
// chain starts at a base, so the walk never leaves the view.
//
//speedlight:hotpath
func (v *View) resolve(dst []Reg, j int) {
	var stack [16]uint64 // a bit per unit, up to 1 024 units
	set := stack[:]
	if len(dst) > 64*len(stack) {
		set = bitset(len(dst))
	}
	left := len(dst)
	for k := j; left > 0; k-- {
		e := v.epochs[k]
		if e.base != nil {
			for i := range dst {
				if set[i>>6]&(1<<(i&63)) == 0 {
					dst[i] = regAt(e.base, i)
				}
			}
			return
		}
		// An epoch at or before j registered no unit past dst's end.
		for _, d := range e.deltas {
			if i := int(d.Unit); set[i>>6]&(1<<(i&63)) == 0 {
				set[i>>6] |= 1 << (i & 63)
				dst[i] = Reg{Value: d.Value, Consistent: d.Consistent, Present: d.Present}
				left--
			}
		}
	}
}

// bitset is resolve's register set for cuts past 1 024 units (cold:
// those do not fit its stack array).
func bitset(units int) []uint64 { return make([]uint64, (units+63)/64) }

// RegDiff is one unit's register change between two cuts.
type RegDiff struct {
	Unit     dataplane.UnitID
	From, To Reg
}

// regAt returns the register at dense index i; an index past the cut's
// registration horizon reads absent.
func regAt(regs []Reg, i int) Reg {
	if i < len(regs) {
		return regs[i]
	}
	return Reg{}
}

// cuts pools Diff's scratch buffer for its two reconstructed cuts.
var cuts = sync.Pool{New: func() any { return new([]Reg) }}

// Diff reconstructs both cuts and returns the registers that differ,
// in dense unit order, or nil when none do. from and to may be in
// either order and need not be adjacent. The cuts resolve into a
// pooled buffer, so the result is Diff's only allocation, made once at
// its final size: the differing registers are counted first.
func (v *View) Diff(from, to packet.SeqID) ([]RegDiff, error) {
	i, j := v.find(from), v.find(to)
	if i < 0 {
		return nil, notRetained(from)
	}
	if j < 0 {
		return nil, notRetained(to)
	}
	na, nb := v.epochs[i].nUnits, v.epochs[j].nUnits
	buf := cuts.Get().(*[]Reg)
	defer cuts.Put(buf)
	if cap(*buf) < na+nb {
		*buf = make([]Reg, na+nb)
	}
	a, b := (*buf)[:na], (*buf)[na:na+nb]
	v.resolve(a, i)
	v.resolve(b, j)
	n := max(na, nb)
	count := 0
	for k := 0; k < n; k++ {
		if regAt(a, k) != regAt(b, k) {
			count++
		}
	}
	if count == 0 {
		return nil, nil
	}
	out := make([]RegDiff, 0, count)
	for k := 0; k < n; k++ {
		if ra, rb := regAt(a, k), regAt(b, k); ra != rb {
			out = append(out, RegDiff{Unit: v.units[k], From: ra, To: rb})
		}
	}
	return out, nil
}
