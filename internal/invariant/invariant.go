// Package invariant is the streaming invariant engine: global
// predicates over consistent cuts, evaluated continuously as the
// snapshot store seals epochs.
//
// One-shot analyses — forwarding-loop windows, provisioning headroom,
// counter monotonicity — become registered invariants: every sealed
// epoch streams through all of them, each verdict is counted in
// labeled telemetry, and violations flow into a bounded history, the
// OnViolation hook (normally the network's OnAnomaly flight-recorder
// path), and the /invariants query endpoint.
//
// Concurrency contract: Eval must be called from a single goroutine —
// the same completion path that seals store epochs. Register is
// setup-time. Status, Violations, and the HTTP handler are safe from
// any goroutine at any time.
package invariant

import (
	"fmt"
	"sync"

	"speedlight/internal/packet"
	"speedlight/internal/snapstore"
	"speedlight/internal/telemetry"
)

// Invariant is one continuously-evaluated predicate over consistent
// cuts. Eval receives the view the epoch was sealed into and the
// epoch's fully reconstructed state; it returns ok=false with a
// human-readable detail when the cut violates the property.
type Invariant interface {
	Name() string
	Eval(v *snapstore.View, st *snapstore.State) (detail string, ok bool)
}

// Violation records one failed evaluation.
type Violation struct {
	// Invariant is the violated invariant's name.
	Invariant string
	// Epoch and Seq identify the violating cut.
	Epoch packet.SeqID
	Seq   uint64
	// Detail is the invariant's explanation of the failure.
	Detail string
}

func (v Violation) String() string {
	return fmt.Sprintf("invariant %s violated at epoch %d: %s", v.Invariant, v.Epoch, v.Detail)
}

// Status is one invariant's current standing, for exposition.
type Status struct {
	Name string
	// Evals and Violations count evaluations since registration.
	Evals      uint64
	Violations uint64
	// LastEpoch is the most recently evaluated epoch; OK and Detail are
	// its verdict. OK is true before any evaluation.
	LastEpoch packet.SeqID
	OK        bool
	Detail    string
}

// Config parameterizes an engine.
type Config struct {
	// History bounds the retained violation log. Default 256.
	History int
	// Registry, when set, enables the engine's labeled counters.
	Registry *telemetry.Registry
	// OnViolation, when set, receives every violation as it is found —
	// the hook the network wires to its OnAnomaly flight-recorder dump.
	OnViolation func(Violation)
}

// Engine evaluates registered invariants against sealed epochs.
type Engine struct {
	cfg Config

	mu      sync.Mutex
	entries []*entry
	history []Violation // ring, oldest first once full
	start   int         // ring head when len(history) == cap

	evals      *telemetry.CounterVec
	violations *telemetry.CounterVec
}

type entry struct {
	inv        Invariant
	evals      *telemetry.Counter
	violations *telemetry.Counter
	st         Status
}

// New builds an engine.
func New(cfg Config) *Engine {
	if cfg.History <= 0 {
		cfg.History = 256
	}
	return &Engine{
		cfg:        cfg,
		evals:      cfg.Registry.CounterVec("speedlight_invariant_evals_total", "invariant evaluations", "invariant"),
		violations: cfg.Registry.CounterVec("speedlight_invariant_violations_total", "invariant violations", "invariant"),
	}
}

// Register adds an invariant. Registration is setup-time; duplicate
// names panic (they would make /invariants ambiguous).
func (e *Engine) Register(inv Invariant) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, ent := range e.entries {
		if ent.inv.Name() == inv.Name() {
			panic("invariant: duplicate registration of " + inv.Name())
		}
	}
	e.entries = append(e.entries, &entry{
		inv:        inv,
		evals:      e.evals.With(inv.Name()),
		violations: e.violations.With(inv.Name()),
		st:         Status{Name: inv.Name(), OK: true},
	})
}

// Len returns the number of registered invariants.
func (e *Engine) Len() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.entries)
}

// Eval streams one sealed epoch through every registered invariant and
// returns the violations found (nil when all hold). The epoch's state
// is reconstructed once from v and shared across invariants.
// Inconsistent epochs are skipped: their cuts carry no causal
// guarantee, so predicating on them would report phantom violations.
func (e *Engine) Eval(v *snapstore.View, ep *snapstore.Epoch) []Violation {
	if ep == nil || !ep.Consistent {
		return nil
	}
	st, err := v.State(ep.ID)
	if err != nil {
		return nil // epoch already compacted away; nothing to evaluate
	}

	e.mu.Lock()
	var found []Violation
	for _, ent := range e.entries {
		detail, ok := ent.inv.Eval(v, st)
		ent.evals.Inc()
		ent.st.Evals++
		ent.st.LastEpoch = ep.ID
		ent.st.OK = ok
		ent.st.Detail = detail
		if ok {
			continue
		}
		ent.violations.Inc()
		ent.st.Violations++
		viol := Violation{Invariant: ent.inv.Name(), Epoch: ep.ID, Seq: ep.Seq, Detail: detail}
		e.record(viol)
		found = append(found, viol)
	}
	e.mu.Unlock()

	if e.cfg.OnViolation != nil {
		for _, viol := range found {
			e.cfg.OnViolation(viol)
		}
	}
	return found
}

// record appends to the bounded history ring. Caller holds e.mu.
func (e *Engine) record(v Violation) {
	if len(e.history) < e.cfg.History {
		e.history = append(e.history, v)
		return
	}
	e.history[e.start] = v
	e.start = (e.start + 1) % len(e.history)
}

// Status returns every invariant's standing, in registration order.
func (e *Engine) Status() []Status {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]Status, len(e.entries))
	for i, ent := range e.entries {
		out[i] = ent.st
	}
	return out
}

// Violations returns the retained violation history, oldest first.
func (e *Engine) Violations() []Violation {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]Violation, 0, len(e.history))
	out = append(out, e.history[e.start:]...)
	out = append(out, e.history[:e.start]...)
	return out
}
