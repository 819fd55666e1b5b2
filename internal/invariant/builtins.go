package invariant

import (
	"fmt"

	"speedlight/internal/dataplane"
	"speedlight/internal/snapstore"
)

// Order asserts a rollout ordering between two units: Before must
// never lag After. A cut where After's register exceeds Before's is
// the classic migration hazard — e.g. a leaf forwarding on FIB v2
// while its counterpart still announces v1 opens a forwarding-loop
// window (the impossible state of experiments' loop-detection use
// case). Units absent from the cut are not compared.
func Order(name string, before, after dataplane.UnitID) Invariant {
	return &orderInv{name: name, before: before, after: after}
}

type orderInv struct {
	name          string
	before, after dataplane.UnitID
}

func (o *orderInv) Name() string { return o.name }

func (o *orderInv) Eval(_ *snapstore.View, st *snapstore.State) (string, bool) {
	b, okB := st.Value(o.before)
	a, okA := st.Value(o.after)
	if !okB || !okA {
		return "", true
	}
	if a.Value > b.Value {
		return fmt.Sprintf("%s=%d ahead of %s=%d (loop window)", o.after, a.Value, o.before, b.Value), false
	}
	return "", true
}

// Bound asserts provisioning headroom: at most maxOver of the given
// units may carry a register above threshold in the same cut: the
// provisioning use case's concurrent-load check — one hot uplink is
// routine, several at once in a single consistent cut is the
// under-provisioning signal a sequential poll would miss.
func Bound(name string, units []dataplane.UnitID, threshold uint64, maxOver int) Invariant {
	return &boundInv{name: name, units: units, threshold: threshold, maxOver: maxOver}
}

type boundInv struct {
	name      string
	units     []dataplane.UnitID
	threshold uint64
	maxOver   int
}

func (b *boundInv) Name() string { return b.name }

func (b *boundInv) Eval(_ *snapstore.View, st *snapstore.State) (string, bool) {
	over := 0
	for _, u := range b.units {
		if r, ok := st.Value(u); ok && r.Value > b.threshold {
			over++
		}
	}
	if over > b.maxOver {
		return fmt.Sprintf("%d units above %d concurrently (max %d)", over, b.threshold, b.maxOver), false
	}
	return "", true
}

// Monotone asserts that the given units' registers never decrease
// between consecutive retained epochs — the expected shape of packet
// and byte counters outside wraparound. Units absent from either cut
// are not compared.
func Monotone(name string, units []dataplane.UnitID) Invariant {
	return &monotoneInv{name: name, units: units}
}

type monotoneInv struct {
	name  string
	units []dataplane.UnitID
}

func (m *monotoneInv) Name() string { return m.name }

func (m *monotoneInv) Eval(v *snapstore.View, st *snapstore.State) (string, bool) {
	prev := previousState(v, st)
	if prev == nil {
		return "", true
	}
	for _, u := range m.units {
		cur, okCur := st.Value(u)
		old, okOld := prev.Value(u)
		if okCur && okOld && cur.Value < old.Value {
			return fmt.Sprintf("%s regressed %d -> %d between epochs %d and %d",
				u, old.Value, cur.Value, prev.Epoch.ID, st.Epoch.ID), false
		}
	}
	return "", true
}

// previousState reconstructs the cut sealed immediately before st's
// epoch, or nil when st is the oldest retained epoch.
func previousState(v *snapstore.View, st *snapstore.State) *snapstore.State {
	epochs := v.Epochs()
	for i := len(epochs) - 1; i > 0; i-- {
		if epochs[i].ID == st.Epoch.ID {
			prev, err := v.State(epochs[i-1].ID)
			if err != nil {
				return nil
			}
			return prev
		}
	}
	return nil
}
