// Package sim implements the deterministic discrete-event simulation
// engines that drive Speedlight's emulated networks.
//
// The paper evaluated Speedlight on a hardware testbed for small
// topologies and in simulation for large ones (its Figure 11). Without a
// Tofino, this repository runs every experiment on the engines here.
// Two implementations share one contract (the Sim interface):
//
//   - Engine: the serial reference — a classic event-queue simulator
//     with virtual nanosecond time and fully seeded randomness.
//   - Parallel (parallel.go): a conservatively synchronized sharded
//     engine that partitions simulation domains across worker
//     goroutines; each shard free-runs up to the clocks its inbound
//     neighbor shards publish plus the pair's link-latency lookahead.
//
// Both keep their pending events in the same queue (evq.go): a heap of
// distinct times whose events wait in one bucket per time. When a time
// becomes current its events are grouped into one lane per scheduling
// domain, each in seq order, and the lanes are linked by ascending
// domain: (src, seq) order without a sort. Event times are quantized,
// so each instant holds many events (~37 on cmd/bench's
// fabric_serial, from ~9 domains).
//
// Determinism contract. Every event carries a tie-break key
// (time, src, seq): src is the scheduling domain and seq a per-domain
// counter incremented in that domain's own (deterministic) execution
// order. Because the key depends only on virtual time and on the
// scheduling domain's logical history — never on goroutine
// interleaving, shard count, or GOMAXPROCS — both engines order
// same-time events identically, and a given seed produces the identical
// run on either engine at any shard count. See DESIGN.md, "Parallel
// simulation and the determinism contract".
//
// Memory discipline. Events are pooled: each execution context (the
// serial engine; each shard of the parallel engine) keeps a free list,
// and a fired or cancelled event returns to the popping context's list.
// Both engines cancel lazily: a cancelled event leaves Pending at once
// but stays queued, and is recycled unfired when its time is reached.
// Schedulers hand out generation-counted Handles instead of raw event
// pointers, so a stale handle (one whose event has already been
// recycled) is detected at Cancel time and panics instead of corrupting
// an unrelated event. The *Call scheduling variants (AfterCall,
// SendCall) carry their arguments inside the pooled event,
// so the hottest emulation paths schedule without allocating a closure.
// See DESIGN.md, "Memory management and hot paths".
package sim

import (
	"fmt"
	"math/rand"
)

// Time is a point in virtual time, in nanoseconds since the start of the
// simulation.
type Time int64

// Duration is a span of virtual time in nanoseconds.
type Duration int64

// Convenient duration units.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Add returns the time d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration between t and u (t - u).
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Micros returns the time as a float64 number of microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// Seconds returns the duration as a float64 number of seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// Micros returns the duration as a float64 number of microseconds.
func (d Duration) Micros() float64 { return float64(d) / float64(Microsecond) }

// DurationOfSeconds converts a float64 second count to a Duration.
func DurationOfSeconds(s float64) Duration { return Duration(s * float64(Second)) }

// DurationOfMicros converts a float64 microsecond count to a Duration.
func DurationOfMicros(us float64) Duration { return Duration(us * float64(Microsecond)) }

// GlobalDomain is the serializing domain: events owned by it execute
// with exclusive access to the whole simulation (on the Parallel engine
// they run on the coordinator between epochs, with every worker
// parked). Drivers, observers and anything that touches more than one
// domain's state belong here. It is also the domain of every event
// scheduled through an engine's legacy top-level Schedule/After
// methods.
const GlobalDomain = 0

// maxTime is the sentinel "no event" time.
const maxTime = Time(1<<63 - 1)

// CallFn is the closure-free event callback form: the scheduling site
// stores its arguments in the pooled event (two pointer-shaped values
// and one integer), so scheduling captures no heap state. Package-level
// functions and cached method values convert to CallFn without
// allocating.
type CallFn func(a, b any, i int64)

// Event is a scheduled callback. Events are pooled and recycled after
// they fire; outside this package they are referred to only through
// generation-counted Handles.
type Event struct {
	at Time
	// src and seq are the determinism key: the scheduling domain and
	// its per-domain schedule counter. Ties at one instant resolve by
	// (src, seq), which both engines compute identically.
	src int32
	// owner is the domain whose state the callback touches; it decides
	// which shard executes the event on the Parallel engine.
	owner int32
	seq   uint64
	// next chains the event into its queue bucket. It sits beside the
	// key, which the queue reads as it walks the chain.
	next *Event
	// Exactly one of fn and cfn is set: fn is the legacy closure form,
	// cfn the closure-free form with its arguments stored alongside.
	fn  func()
	cfn CallFn
	a   any
	b   any
	i   int64

	// gen counts reuses: it is incremented every time the event leaves
	// a free list, invalidating handles to its previous life. pooled
	// marks the event as sitting in a free list (fired or cancelled,
	// not yet reused).
	gen      uint64
	canceled bool
	pooled   bool
}

// fire invokes the event's callback.
//
//speedlight:hotpath
func (e *Event) fire() {
	if e.cfn != nil {
		e.cfn(e.a, e.b, e.i)
		return
	}
	e.fn()
}

// Handle refers to a scheduled event. It stays valid after the event
// fires — cancelling a fired event is a no-op — but only until the
// engine recycles the event for a new schedule: cancelling through a
// handle that outlived its event panics, turning a use-after-free into
// a caught bug instead of a silently cancelled stranger. The zero
// Handle is valid and cancels as a no-op.
type Handle struct {
	ev  *Event
	gen uint64
}

// checkGen panics when the handle's event has been recycled.
func (h Handle) checkGen() {
	if h.ev.gen != h.gen {
		panic("sim: Cancel through a stale Handle: the event already fired and was recycled for a new schedule (use after free)")
	}
}

// eventPool is one execution context's free list of events. It is
// deliberately not a sync.Pool: each pool is owned by a single
// execution context (the serial engine, one shard, or the parallel
// coordinator), so get and put are plain slice operations with no
// synchronization and no per-P caching behavior to reason about.
type eventPool struct {
	free []*Event
}

//speedlight:hotpath
func (p *eventPool) get() *Event {
	n := len(p.free)
	if n == 0 {
		return newPoolEvent()
	}
	ev := p.free[n-1]
	p.free[n-1] = nil
	p.free = p.free[:n-1]
	ev.gen++ // invalidate handles to the previous life
	ev.pooled = false
	ev.canceled = false
	return ev
}

// newPoolEvent is the pool's cold allocation path, kept out of the
// hot-path functions so the hotalloc analyzer can bless get.
func newPoolEvent() *Event {
	return &Event{}
}

//speedlight:hotpath
func (p *eventPool) put(ev *Event) {
	// Drop callback and argument references so pooled events don't pin
	// dead objects.
	ev.fn = nil
	ev.cfn = nil
	ev.a = nil
	ev.b = nil
	ev.pooled = true
	p.free = append(p.free, ev)
}

// Sim is the contract shared by the serial Engine and the Parallel
// sharded engine. Emulations program against it so a network can run on
// either engine unchanged; the conformance tests prove the two produce
// identical journals, audits and snapshots from one seed.
type Sim interface {
	// Now returns the current virtual time of the driver context. On
	// the Parallel engine it is only meaningful between Run* calls and
	// inside GlobalDomain events; domain code must use its Proc's Now.
	Now() Time
	// NewRand returns a fresh stream seeded from the engine, for a
	// component that wants randomness independent of interleaving.
	NewRand() *rand.Rand
	// Proc returns the scheduling handle of one domain. Proc(GlobalDomain)
	// is the driver/observer context.
	Proc(domain int) Proc
	// Schedule, After, Cancel and NewTicker are conveniences for
	// Proc(GlobalDomain); see Proc for the context rules.
	Schedule(at Time, fn func()) Handle
	After(d Duration, fn func()) Handle
	Cancel(h Handle)
	NewTicker(period Duration, fn func()) *Ticker
	// Run executes events until none remain.
	Run()
	// RunUntil executes events with time <= t, then sets the clock to t.
	RunUntil(t Time)
	// RunFor advances the simulation by d from the current time.
	RunFor(d Duration)
	// Fired returns the total number of events executed so far.
	Fired() uint64
	// Pending returns the number of scheduled, uncancelled events.
	Pending() int
}

// Proc is one domain's scheduling handle. A domain is a logical thread
// of the simulation (one emulated switch, say): its events run in a
// single deterministic order, and everything it schedules is keyed by
// the domain's own counter, independent of goroutine interleaving.
//
// Context rule: a Proc may only be used from its own domain's executing
// events, from GlobalDomain events, or from the driver between Run*
// calls — never from another domain's events. The serial Engine cannot
// tell the difference; the Parallel engine's determinism depends on it.
type Proc interface {
	// Now returns the domain's current virtual time: the executing
	// event's timestamp inside the domain, the global time otherwise.
	Now() Time
	// Schedule runs fn at time at in this domain. Scheduling in the
	// past panics: it always indicates a logic error.
	Schedule(at Time, fn func()) Handle
	// After runs fn d after Now in this domain. Negative d clamps to 0.
	After(d Duration, fn func()) Handle
	// Send schedules fn in another domain, d after Now. On the Parallel
	// engine a send between different shards must satisfy the lookahead
	// (d at least the configured inter-shard lookahead) or it panics
	// with a causality violation.
	Send(owner int, d Duration, fn func()) Handle
	// SendAt is Send with an absolute time.
	SendAt(owner int, at Time, fn func()) Handle
	// AfterCall and SendCall are the closure-free forms of After and
	// Send: fn must be a package-level function or a cached method
	// value, and its arguments travel inside the pooled event, so the
	// call site allocates nothing.
	AfterCall(d Duration, fn CallFn, a, b any, i int64) Handle
	SendCall(owner int, d Duration, fn CallFn, a, b any, i int64) Handle
	// Cancel suppresses a scheduled event of this domain. The event
	// leaves Pending at once and is recycled, unfired, when its time is
	// reached. Cancelling an already-fired (or already-cancelled) event
	// whose Event has not been recycled yet is a no-op; cancelling
	// through a handle whose event has been recycled panics
	// (use-after-free detection).
	Cancel(h Handle)
	// NewTicker schedules fn every period in this domain, first firing
	// one period from Now.
	NewTicker(period Duration, fn func()) *Ticker
}

// Engine is the serial reference implementation of Sim: a single
// event queue drained by one logical thread of control. It is not safe
// for concurrent use.
type Engine struct {
	now     Time
	q       evq
	domSeq  []uint64 // per-domain schedule counters (the seq key)
	pool    eventPool
	seedSrc *rand.Rand // derives seeds for component substreams
	fired   uint64
}

var _ Sim = (*Engine)(nil)

// NewEngine returns an engine whose randomness derives entirely from
// seed. Two engines built with the same seed and driven by the same
// logic produce identical runs.
func NewEngine(seed int64) *Engine {
	// The xor fixes which seeds the substreams get: every run's
	// randomness, and so every digest, depends on it.
	return &Engine{seedSrc: rand.New(rand.NewSource(seed ^ 0x5eed_11a7))}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// NewRand returns a fresh random stream seeded from the engine, for a
// component that wants randomness independent of event interleaving.
func (e *Engine) NewRand() *rand.Rand {
	return rand.New(rand.NewSource(e.seedSrc.Int63()))
}

// Fired returns the total number of events executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending returns the number of scheduled, uncancelled events.
func (e *Engine) Pending() int {
	n := 0
	e.q.forEach(func(ev *Event) {
		if !ev.canceled {
			n++
		}
	})
	return n
}

// nextSeq returns the per-domain sequence counter value for dom and
// advances it, growing the counter table on first use of a domain.
func (e *Engine) nextSeq(dom int) uint64 {
	for len(e.domSeq) <= dom {
		e.domSeq = append(e.domSeq, 0)
	}
	s := e.domSeq[dom]
	if s >= maxSeq {
		seqOverflow(dom)
	}
	e.domSeq[dom]++
	return s
}

// Proc returns the scheduling handle of one domain.
func (e *Engine) Proc(domain int) Proc {
	checkDomain(domain)
	return engineProc{e: e, dom: domain}
}

// schedule is the common path: an event scheduled by domain src to run
// in domain owner. Exactly one of fn and cfn must be set.
//
//speedlight:hotpath
func (e *Engine) schedule(src, owner int, at Time, fn func(), cfn CallFn, a, b any, i int64) Handle {
	if at < e.now {
		panic(fmt.Sprintf("sim: schedule at %d before now %d", at, e.now))
	}
	ev := e.pool.get()
	ev.at = at
	ev.src = int32(src)
	ev.seq = e.nextSeq(src)
	ev.owner = int32(owner)
	ev.fn = fn
	ev.cfn = cfn
	ev.a = a
	ev.b = b
	ev.i = i
	e.q.push(ev)
	return Handle{ev: ev, gen: ev.gen}
}

// Schedule runs fn at virtual time at in the global domain. Scheduling
// in the past panics: it always indicates a logic error in the
// simulation.
func (e *Engine) Schedule(at Time, fn func()) Handle {
	return e.schedule(GlobalDomain, GlobalDomain, at, fn, nil, nil, nil, 0)
}

// After runs fn d after the current time. Negative d schedules for now.
func (e *Engine) After(d Duration, fn func()) Handle {
	if d < 0 {
		d = 0
	}
	return e.Schedule(e.now.Add(d), fn)
}

// Cancel suppresses a scheduled event. The event leaves Pending at once
// but stays queued, and returns to the pool when its time is reached.
// Cancelling an already-fired or already-cancelled event is a no-op
// while its Event object has not been reused; once the engine has
// recycled the event for a new schedule, Cancel panics (see Handle).
func (e *Engine) Cancel(h Handle) {
	ev := h.ev
	if ev == nil {
		return
	}
	h.checkGen()
	if ev.pooled {
		return // fired (or reclaimed) and not yet reused: no-op
	}
	ev.canceled = true
}

// Step executes the next event, advancing virtual time. It returns false
// when no events remain.
//
//speedlight:hotpath
func (e *Engine) Step() bool {
	for {
		ev := e.q.pop()
		if ev == nil {
			return false
		}
		if ev.canceled {
			e.pool.put(ev)
			continue
		}
		e.now = ev.at
		e.fired++
		ev.fire()
		e.pool.put(ev)
		return true
	}
}

// Run executes events until none remain.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil executes events with time <= t, then sets the clock to t.
// Events scheduled after t remain pending.
//
//speedlight:hotpath
func (e *Engine) RunUntil(t Time) {
	for e.q.nextAt() <= t {
		ev := e.q.pop()
		if ev == nil {
			break // empty queue and t == maxTime
		}
		if !ev.canceled {
			e.now = ev.at
			e.fired++
			ev.fire()
		}
		e.pool.put(ev)
	}
	if e.now < t {
		e.now = t
	}
}

// RunFor advances the simulation by d from the current time.
func (e *Engine) RunFor(d Duration) { e.RunUntil(e.now.Add(d)) }

// NewTicker schedules fn every period in the global domain, first
// firing one period from now.
func (e *Engine) NewTicker(period Duration, fn func()) *Ticker {
	return e.Proc(GlobalDomain).NewTicker(period, fn)
}

// engineProc is the serial engine's Proc: every domain shares the one
// queue and clock; only the (src, seq) key differs.
type engineProc struct {
	e   *Engine
	dom int
}

func (p engineProc) Now() Time { return p.e.now }

func (p engineProc) Schedule(at Time, fn func()) Handle {
	return p.e.schedule(p.dom, p.dom, at, fn, nil, nil, nil, 0)
}

func (p engineProc) After(d Duration, fn func()) Handle {
	if d < 0 {
		d = 0
	}
	return p.e.schedule(p.dom, p.dom, p.e.now.Add(d), fn, nil, nil, nil, 0)
}

func (p engineProc) Send(owner int, d Duration, fn func()) Handle {
	if d < 0 {
		d = 0
	}
	return p.e.schedule(p.dom, owner, p.e.now.Add(d), fn, nil, nil, nil, 0)
}

func (p engineProc) SendAt(owner int, at Time, fn func()) Handle {
	return p.e.schedule(p.dom, owner, at, fn, nil, nil, nil, 0)
}

func (p engineProc) AfterCall(d Duration, fn CallFn, a, b any, i int64) Handle {
	if d < 0 {
		d = 0
	}
	return p.e.schedule(p.dom, p.dom, p.e.now.Add(d), nil, fn, a, b, i)
}

func (p engineProc) SendCall(owner int, d Duration, fn CallFn, a, b any, i int64) Handle {
	if d < 0 {
		d = 0
	}
	return p.e.schedule(p.dom, owner, p.e.now.Add(d), nil, fn, a, b, i)
}

func (p engineProc) Cancel(h Handle) { p.e.Cancel(h) }

func (p engineProc) NewTicker(period Duration, fn func()) *Ticker {
	return newTicker(p, period, fn)
}

// Ticker repeatedly invokes a callback at a fixed period until stopped.
// The callback runs in the domain of the Proc that created the ticker.
type Ticker struct {
	p      Proc
	period Duration
	fn     func()
	h      Handle
	stop   bool
}

func newTicker(p Proc, period Duration, fn func()) *Ticker {
	if period <= 0 {
		panic("sim: ticker period must be positive")
	}
	t := &Ticker{p: p, period: period, fn: fn}
	t.arm()
	return t
}

// tickerTick is the shared closure-free ticker callback: the Ticker
// itself travels as the event argument, so re-arming every period
// allocates nothing.
func tickerTick(a, _ any, _ int64) {
	t := a.(*Ticker)
	if t.stop {
		return
	}
	t.fn()
	if !t.stop {
		t.arm()
	}
}

//speedlight:hotpath
func (t *Ticker) arm() {
	t.h = t.p.AfterCall(t.period, tickerTick, t, nil, 0)
}

// Stop cancels the ticker. The callback will not fire again. Stop must
// be called from the ticker's own domain context (or the driver), and
// is idempotent.
func (t *Ticker) Stop() {
	if t.stop {
		return
	}
	t.stop = true
	t.p.Cancel(t.h)
}
