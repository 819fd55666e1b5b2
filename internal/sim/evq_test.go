package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// refLess is the reference order the queue must realize, written the
// plain way: time, then scheduling domain, then per-domain sequence.
func refLess(a, b *Event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.src != b.src {
		return a.src < b.src
	}
	return a.seq < b.seq
}

// queueModel drives an evq and a sorted reference with one op
// alphabet: byte pairs (op, arg). Keys are tie-heavy — three live
// timestamps shared by dozens of events from several domains — and two
// domains count from 2^20 below the sequence limit, one of them the
// largest legal domain, so a key that let one packed field run into
// the other would mis-order.
type queueModel struct {
	q    evq
	ref  []*Event
	seq  map[int32]uint64
	base Time // the earliest time a push picks
	last Time // the time of the last pop: the queue's current time
}

var modelDomains = []int32{0, 1, 2, 3, 7, maxDomains - 1}

func newQueueModel() *queueModel {
	m := &queueModel{seq: make(map[int32]uint64)}
	m.seq[2], m.seq[maxDomains-1] = maxSeq-1<<20, maxSeq-1<<20
	return m
}

func (m *queueModel) push(at Time, src int32) {
	ev := &Event{at: at, src: src, seq: m.seq[src]}
	m.seq[src]++
	m.q.push(ev)
	i := sort.Search(len(m.ref), func(i int) bool { return refLess(ev, m.ref[i]) })
	m.ref = append(m.ref, nil)
	copy(m.ref[i+1:], m.ref[i:])
	m.ref[i] = ev
}

// step applies one op and compares the queue with the reference.
func (m *queueModel) step(tb testing.TB, op, arg byte) {
	tb.Helper()
	src := modelDomains[int(arg>>2)%len(modelDomains)]
	switch op % 8 {
	case 0, 1, 2:
		m.push(m.base+Time(arg%3), src)
	case 3:
		// At the current time, often from a smaller domain than
		// events already popped there.
		m.push(max(m.last, m.base), src)
	case 6:
		if arg%8 == 0 {
			// A long same-time run, domains interleaved: many
			// lanes, each several events long.
			at := m.base + Time(arg%3)
			for i := 0; i < 33+int(arg>>3); i++ {
				m.push(at, modelDomains[(i*5+int(arg>>3))%len(modelDomains)])
			}
			break
		}
		fallthrough
	case 4, 5:
		if len(m.ref) == 0 {
			break
		}
		ev := m.q.pop()
		if want := m.ref[0]; ev != want {
			tb.Fatalf("pop returned %s, reference minimum is %s", evKey(ev), evKey(want))
		}
		m.ref = m.ref[1:]
		m.last = ev.at
	case 7:
		switch arg % 4 {
		case 0:
			m.base++ // a new timestamp, rarely: most events tie
		case 1:
			// One time over several buckets: a push of a later time
			// with the same cache entry evicts the time's tail, so
			// its next push opens another bucket, which the heap may
			// pop first. Every domain, the spilled one too, has
			// events in each bucket.
			at := m.base + Time(arg>>2%3)
			later := at
			for i := 0; i < 3; i++ {
				for _, src := range modelDomains {
					m.push(at, src)
				}
				for later++; cacheAt(uint64(later)) != cacheAt(uint64(at)); later++ {
				}
				m.push(later, modelDomains[i])
			}
		}
	}
	m.check(tb, op)
}

// check compares population and the earliest time with the reference.
func (m *queueModel) check(tb testing.TB, op byte) {
	tb.Helper()
	n := 0
	m.q.forEach(func(*Event) { n++ })
	if n != len(m.ref) {
		tb.Fatalf("op %d: queue holds %d events, reference %d", op, n, len(m.ref))
	}
	want := maxTime
	if len(m.ref) > 0 {
		want = m.ref[0].at
	}
	if got := m.q.nextAt(); got != want {
		tb.Fatalf("op %d: nextAt = %d, reference minimum at %d", op, got, want)
	}
}

// drain pops everything left in reference order.
func (m *queueModel) drain(tb testing.TB) {
	tb.Helper()
	for len(m.ref) > 0 {
		if ev := m.q.pop(); ev != m.ref[0] {
			tb.Fatalf("drain: pop returned %s, reference minimum is %s", evKey(ev), evKey(m.ref[0]))
		}
		m.ref = m.ref[1:]
	}
	if m.q.pop() != nil {
		tb.Fatal("pop on a drained queue returned an event")
	}
}

func evKey(ev *Event) string {
	if ev == nil {
		return "nil"
	}
	return fmt.Sprintf("(%d,%d,%d)", ev.at, ev.src, ev.seq)
}

// engineModel drives an Engine with the same alphabet: schedules from
// several domains, cancels of live, fired and cancelled handles, steps
// and RunUntil. Every firing must be the reference minimum of the live
// (uncancelled) events, and Pending must count exactly those.
type engineModel struct {
	e    *Engine
	ref  []modelEv // live events, sorted
	all  []Handle  // every handle scheduled
	next int
}

type modelEv struct {
	at  Time
	key uint64
	id  int
	h   Handle
}

func (m *engineModel) step(tb testing.TB, op, arg byte) {
	tb.Helper()
	switch op % 8 {
	case 0, 1, 2, 3:
		dom := int(modelDomains[int(arg>>2)%5]) // the small domains
		id := m.next
		m.next++
		h := m.e.Proc(dom).Schedule(m.e.Now()+Time(arg%3), func() {
			if len(m.ref) == 0 || m.ref[0].id != id {
				tb.Fatalf("event %d fired, reference minimum is %v", id, m.ref)
			}
			m.ref = m.ref[1:]
		})
		me := modelEv{h.ev.at, keyOf(h.ev), id, h}
		i := sort.Search(len(m.ref), func(i int) bool {
			r := m.ref[i]
			return me.at < r.at || me.at == r.at && me.key < r.key
		})
		m.ref = append(m.ref, modelEv{})
		copy(m.ref[i+1:], m.ref[i:])
		m.ref[i] = me
		m.all = append(m.all, h)
	case 4, 5:
		// Cancel a live event, or repeat a cancel, or cancel a fired
		// one: only a live one leaves the reference.
		if len(m.ref) > 0 && arg%2 == 0 {
			i := int(arg/2) % len(m.ref)
			m.e.Cancel(m.ref[i].h)
			m.ref = append(m.ref[:i], m.ref[i+1:]...)
		} else if len(m.all) > 0 {
			h := m.all[len(m.all)-1-int(arg)%len(m.all)]
			if h.ev.gen != h.gen {
				break // recycled: Cancel would panic as stale
			}
			m.e.Cancel(h)
			for i := range m.ref {
				if m.ref[i].h == h {
					m.ref = append(m.ref[:i], m.ref[i+1:]...)
					break
				}
			}
		}
	case 6:
		m.e.Step()
	case 7:
		m.e.RunUntil(m.e.Now() + Time(arg%3))
	}
	if got := m.e.Pending(); got != len(m.ref) {
		tb.Fatalf("op %d: Pending = %d, reference holds %d live events", op, got, len(m.ref))
	}
}

func runQueueOps(tb testing.TB, ops []byte) {
	tb.Helper()
	m := newQueueModel()
	for i := 0; i+1 < len(ops) && i < 8192; i += 2 {
		m.step(tb, ops[i], ops[i+1])
	}
	m.drain(tb)
}

func runEngineOps(tb testing.TB, ops []byte) {
	tb.Helper()
	m := &engineModel{e: NewEngine(1)}
	for i := 0; i+1 < len(ops) && i < 8192; i += 2 {
		m.step(tb, ops[i], ops[i+1])
	}
	m.e.Run()
	if len(m.ref) != 0 {
		tb.Fatalf("Run left %d live events unfired", len(m.ref))
	}
}

// randomOps returns a seeded op stream for the differential test.
func randomOps(seed int64, n int) []byte {
	r := rand.New(rand.NewSource(seed))
	ops := make([]byte, 2*n)
	r.Read(ops)
	return ops
}

// TestEventQueueDifferential drives seeded random op streams against
// the sorted reference, checking the population and nextAt after every
// op: pushes on three live timestamps, pushes at the current time
// below keys already popped there, long same-time runs of many
// domains, one time split over several buckets, and, through the
// serial engine, schedules, cancels, steps and RunUntil.
func TestEventQueueDifferential(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		ops := randomOps(seed, 4000)
		t.Run(fmt.Sprint("queue/", seed), func(t *testing.T) { runQueueOps(t, ops) })
		t.Run(fmt.Sprint("engine/", seed), func(t *testing.T) { runEngineOps(t, ops) })
	}
}

// FuzzEventQueue runs the differential test's op alphabet on arbitrary
// byte strings, against the queue and the engine.
func FuzzEventQueue(f *testing.F) {
	f.Add([]byte{0, 0, 4, 0, 3, 0, 4, 0})
	f.Add([]byte{6, 1, 4, 0, 3, 4, 6, 2, 4, 0, 7, 0, 0, 1})
	f.Add(randomOps(1, 64))
	f.Fuzz(func(t *testing.T, ops []byte) {
		runQueueOps(t, ops)
		runEngineOps(t, ops)
	})
}

// mustPanicWith runs f and requires a panic whose message contains want.
func mustPanicWith(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if r == nil {
			t.Fatalf("no panic, want one containing %q", want)
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, want) {
			t.Fatalf("panic %q does not contain %q", msg, want)
		}
	}()
	f()
}

// TestDomainOutOfRangePanics: a domain the packed key cannot hold is
// refused when its Proc is requested, on both engines, instead of
// aliasing a smaller domain's events.
func TestDomainOutOfRangePanics(t *testing.T) {
	const want = "out of range: the event key holds domains below 2^23"
	NewEngine(1).Proc(maxDomains - 1) // the largest legal domain
	mustPanicWith(t, want, func() { NewEngine(1).Proc(maxDomains) })
	mustPanicWith(t, want, func() { NewParallel(1, 2, 10).Proc(maxDomains) })
}

// TestSequenceOverflowPanics: a domain that has used every sequence
// number the packed key can hold panics on its next schedule instead of
// carrying into the domain field.
func TestSequenceOverflowPanics(t *testing.T) {
	const want = "scheduled 2^40 events: its sequence counter overflows the event key"

	e := NewEngine(1)
	var order []string
	e.Proc(3).Schedule(10, func() { order = append(order, "first") })
	e.domSeq[3] = maxSeq - 1
	e.Proc(3).Schedule(10, func() { order = append(order, "last") }) // the largest legal sequence
	e.Proc(4).Schedule(10, func() { order = append(order, "next domain") })
	mustPanicWith(t, want, func() { e.Proc(3).Schedule(10, func() {}) })
	e.Run()
	if got := strings.Join(order, ","); got != "first,last,next domain" {
		t.Errorf("order at the sequence limit = %q", got)
	}

	p := NewParallel(1, 2, 10)
	pr := p.Proc(1)
	p.domains[1].seq = maxSeq
	mustPanicWith(t, want, func() { pr.Schedule(10, func() {}) })
}

// BenchmarkEventQueue prices the queue on a churning hold-model
// workload (the pattern emulation produces: pop the minimum, push a
// successor). The random arm spreads 512 chains over 2 µs of latencies,
// nearly every event at its own time; the ties arm is the fabric's host
// tickers — 32 chains in 32 domains re-arming with one constant period,
// all on one instant; the fabric arm is the fabric's packets — 192
// chains in 48 domains, each re-arming after one of four quantized
// delays, so many events share each of a few instants.
func BenchmarkEventQueue(b *testing.B) {
	b.Run("random", func(b *testing.B) {
		e := NewEngine(1)
		p := e.Proc(GlobalDomain)
		r := e.NewRand()
		var churn CallFn
		churn = func(_, _ any, _ int64) {
			p.AfterCall(Duration(1+r.Intn(2000)), churn, nil, nil, 0)
		}
		for i := 0; i < 512; i++ {
			p.AfterCall(Duration(1+r.Intn(2000)), churn, nil, nil, 0)
		}
		stepN(b, e)
	})
	b.Run("ties", func(b *testing.B) {
		e := NewEngine(1)
		procs := make([]Proc, 32)
		var churn CallFn
		churn = func(_, _ any, d int64) {
			procs[d].AfterCall(2000, churn, nil, nil, d)
		}
		for d := range procs {
			procs[d] = e.Proc(d + 1)
			procs[d].AfterCall(2000, churn, nil, nil, int64(d))
		}
		stepN(b, e)
	})
	b.Run("fabric", func(b *testing.B) {
		e := NewEngine(1)
		r := e.NewRand()
		procs := make([]Proc, 64)
		var churn CallFn
		churn = func(_, _ any, d int64) {
			procs[d].AfterCall(Duration(250*(1+r.Intn(8))), churn, nil, nil, d)
		}
		for d := range procs {
			procs[d] = e.Proc(d + 1)
		}
		for i := 0; i < 256; i++ {
			d := i % len(procs)
			procs[d].AfterCall(Duration(250*(1+r.Intn(8))), churn, nil, nil, int64(d))
		}
		stepN(b, e)
	})
}

func stepN(b *testing.B, e *Engine) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}
