package snapstore

// DeltaCount returns how many register changes the epoch recorded.
func (e *Epoch) DeltaCount() int { return len(e.deltas) }

// Chain reports the shape of the view's chain: whether it starts at a
// base, how many evicted epochs it keeps hidden ahead of the retained
// ones, and how many epochs it holds in all.
func (v *View) Chain() (startsAtBase bool, hidden, resident int) {
	return len(v.epochs) > 0 && v.epochs[0].IsBase(), v.lo, len(v.epochs)
}
