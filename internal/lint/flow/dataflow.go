package flow

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Fact is an abstract state attached to a program point. nil means
// "unreachable / not yet computed" (⊥); Join(nil, f) must return f.
type Fact any

// Lattice supplies the join semantics for a forward analysis. Join
// must be monotone and Equal must be a true equivalence, or the
// fixpoint will hit the iteration cap and Forward reports an error.
type Lattice struct {
	Join  func(a, b Fact) Fact
	Equal func(a, b Fact) bool
}

// Transfer maps a block's entry fact to its exit fact. It must not
// mutate in; copy-on-write Facts (see Env) make that cheap.
type Transfer func(b *Block, in Fact) Fact

// Flow holds the converged entry/exit facts per block.
type Flow struct {
	In  map[*Block]Fact
	Out map[*Block]Fact
}

// Forward runs a worklist fixpoint over the CFG. entry seeds the
// Entry block; every other block starts at ⊥ (nil). The iteration
// budget is generous (each block can be revisited ~4× the lattice
// height any sane client needs) but hard: a non-converging lattice
// returns an error instead of hanging the build.
func Forward(c *CFG, lat Lattice, entry Fact, tr Transfer) (*Flow, error) {
	f := &Flow{In: map[*Block]Fact{}, Out: map[*Block]Fact{}}
	f.In[c.Entry] = entry

	work := make([]*Block, 0, len(c.Blocks))
	inWork := make([]bool, len(c.Blocks)+1)
	push := func(b *Block) {
		if b.Index < len(inWork) && !inWork[b.Index] {
			inWork[b.Index] = true
			work = append(work, b)
		}
	}
	push(c.Entry)

	budget := 64*len(c.Blocks) + 256
	for len(work) > 0 {
		if budget--; budget < 0 {
			return nil, fmt.Errorf("flow: fixpoint did not converge in %d steps over %d blocks", 64*len(c.Blocks)+256, len(c.Blocks))
		}
		b := work[0]
		work = work[1:]
		if b.Index < len(inWork) {
			inWork[b.Index] = false
		}

		in := f.In[b]
		if b != c.Entry {
			in = nil
			for _, p := range b.Preds {
				in = lat.Join(in, f.Out[p])
			}
			f.In[b] = in
		}
		if in == nil && b != c.Entry {
			continue // unreachable so far
		}
		out := tr(b, in)
		if old, ok := f.Out[b]; !ok || !lat.Equal(old, out) {
			f.Out[b] = out
			for _, s := range b.Succs {
				if s != c.Exit {
					push(s)
				}
			}
		}
	}
	return f, nil
}

// Solve is the fixpoint-then-report scaffold of a path-sensitive
// analyzer. step interprets one CFG node over a fact; Solve runs it to
// a fixpoint with report false (it runs many times per node there),
// then once per node of every reachable block on the converged facts
// with report true, and finally hands atReturn the fact at each normal
// return (panic paths owe nothing) with the position to report at: the
// return statement, or the closing brace for an implicit one. A
// lattice that does not converge leaves the function unreported rather
// than guessed at.
func (c *CFG) Solve(lat Lattice, entry Fact, step func(f Fact, n ast.Node, report bool) Fact, atReturn func(f Fact, pos token.Pos)) {
	run := func(report bool) Transfer {
		return func(b *Block, f Fact) Fact {
			for _, n := range b.Nodes {
				f = step(f, n, report)
			}
			return f
		}
	}
	res, err := Forward(c, lat, entry, run(false))
	if err != nil {
		return
	}
	for _, b := range c.Blocks {
		if in, ok := res.In[b]; ok && in != nil {
			run(true)(b, in)
		}
	}
	for _, t := range c.Terminators() {
		out, ok := res.Out[t]
		if !ok {
			continue
		}
		pos := c.End
		for i := len(t.Nodes) - 1; i >= 0; i-- {
			if r, ok := t.Nodes[i].(*ast.ReturnStmt); ok {
				pos = r.Pos()
				break
			}
		}
		atReturn(out, pos)
	}
}

// ---- May-analysis environment: object -> state bitset ----

// Abs is a bitset of abstract states a tracked value may be in along
// some path reaching this point (a union/may analysis).
type Abs uint8

// Env maps tracked objects to their may-state. Envs are persistent:
// Set returns a copy, so facts from different paths never alias.
// A nil Env is a valid empty environment.
type Env map[types.Object]Abs

// Get returns the state bitset for o (0 when untracked).
func (e Env) Get(o types.Object) Abs { return e[o] }

// Set returns a copy of e with o set to s. s == 0 deletes o.
func (e Env) Set(o types.Object, s Abs) Env {
	n := make(Env, len(e)+1)
	for k, v := range e {
		n[k] = v
	}
	if s == 0 {
		delete(n, o)
	} else {
		n[o] = s
	}
	return n
}

// EnvLattice is the union-join lattice over Env facts.
var EnvLattice = Lattice{
	Join: func(a, b Fact) Fact {
		if a == nil {
			return b
		}
		if b == nil {
			return a
		}
		ea, eb := a.(Env), b.(Env)
		n := make(Env, len(ea)+len(eb))
		for k, v := range ea {
			n[k] = v
		}
		for k, v := range eb {
			n[k] |= v
		}
		return n
	},
	Equal: func(a, b Fact) bool {
		if a == nil || b == nil {
			return a == nil && b == nil
		}
		ea, eb := a.(Env), b.(Env)
		if len(ea) != len(eb) {
			return false
		}
		for k, v := range ea {
			if eb[k] != v {
				return false
			}
		}
		return true
	},
}

// ---- Must-analysis set: intersection of string facts ----

// MustSet is a set of facts that hold on *every* path reaching a
// point (e.g. "lock X is held"). Join is intersection; nil is ⊥
// (unreachable), which joins as identity — distinct from the empty
// set, which means "reachable, nothing held".
type MustSet map[string]bool

// With returns a copy of m with k added.
func (m MustSet) With(k string) MustSet {
	n := make(MustSet, len(m)+1)
	for s := range m {
		n[s] = true
	}
	n[k] = true
	return n
}

// Without returns a copy of m with k removed.
func (m MustSet) Without(k string) MustSet {
	n := make(MustSet, len(m))
	for s := range m {
		if s != k {
			n[s] = true
		}
	}
	return n
}

// Sorted returns the members in deterministic order for reporting.
func (m MustSet) Sorted() []string {
	out := make([]string, 0, len(m))
	for s := range m {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// MustLattice is the intersection-join lattice over MustSet facts.
var MustLattice = Lattice{
	Join: func(a, b Fact) Fact {
		if a == nil {
			return b
		}
		if b == nil {
			return a
		}
		ma, mb := a.(MustSet), b.(MustSet)
		n := MustSet{}
		for k := range ma {
			if mb[k] {
				n[k] = true
			}
		}
		return n
	},
	Equal: func(a, b Fact) bool {
		if a == nil || b == nil {
			return a == nil && b == nil
		}
		ma, mb := a.(MustSet), b.(MustSet)
		if len(ma) != len(mb) {
			return false
		}
		for k := range ma {
			if !mb[k] {
				return false
			}
		}
		return true
	},
}
