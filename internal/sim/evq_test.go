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

// checkQueue compares the queue with the sorted reference: same
// population, the reference minimum on top, every queued event's index
// naming its own slot.
func checkQueue(t *testing.T, q *evq, ref []*Event, step int, op string) {
	t.Helper()
	if len(q.s) != len(ref) {
		t.Fatalf("step %d (%s): len = %d, reference holds %d", step, op, len(q.s), len(ref))
	}
	for i := range q.s {
		if got := q.s[i].ev.index; got != i {
			t.Fatalf("step %d (%s): event in slot %d has index %d", step, op, i, got)
		}
	}
	if len(ref) == 0 {
		if q.peek() != nil {
			t.Fatalf("step %d (%s): peek on an empty queue returned an event", step, op)
		}
		return
	}
	if q.peek() != ref[0] {
		t.Fatalf("step %d (%s): peek is not the reference minimum", step, op)
	}
}

// TestEventQueueDifferential drives seeded random interleavings of
// push, pop and remove-at-arbitrary-position against a sorted
// reference. Keys are tie-heavy — a handful of timestamps shared by
// dozens of events from several domains — and two domains count from
// just under the sequence limit, one of them the largest legal domain,
// so a key that let one packed field run into the other would
// mis-order.
func TestEventQueueDifferential(t *testing.T) {
	domains := []int32{0, 1, 2, 3, 7, maxDomains - 1}
	for seed := int64(1); seed <= 8; seed++ {
		r := rand.New(rand.NewSource(seed))
		var q evq
		var ref []*Event
		seq := make(map[int32]uint64)
		seq[2], seq[maxDomains-1] = maxSeq-4096, maxSeq-4096
		base := Time(0)
		for step := 0; step < 4000; step++ {
			switch k := r.Intn(10); {
			case k < 5 || len(ref) == 0:
				src := domains[r.Intn(len(domains))]
				ev := &Event{at: base + Time(r.Intn(3)), src: src, seq: seq[src], index: -1}
				seq[src]++
				q.push(ev)
				at := sort.Search(len(ref), func(i int) bool { return refLess(ev, ref[i]) })
				ref = append(ref, nil)
				copy(ref[at+1:], ref[at:])
				ref[at] = ev
				checkQueue(t, &q, ref, step, "push")
			case k < 8:
				ev := q.pop()
				if ev != ref[0] {
					t.Fatalf("seed %d step %d: pop returned (%d,%d,%d), reference minimum is (%d,%d,%d)",
						seed, step, ev.at, ev.src, ev.seq, ref[0].at, ref[0].src, ref[0].seq)
				}
				if ev.index != -1 {
					t.Fatalf("seed %d step %d: popped event keeps index %d", seed, step, ev.index)
				}
				ref = ref[1:]
				checkQueue(t, &q, ref, step, "pop")
			default:
				at := r.Intn(len(ref))
				ev := ref[at]
				q.remove(ev)
				if ev.index != -1 {
					t.Fatalf("seed %d step %d: removed event keeps index %d", seed, step, ev.index)
				}
				ref = append(ref[:at], ref[at+1:]...)
				checkQueue(t, &q, ref, step, "remove")
			}
			if r.Intn(40) == 0 {
				base++ // a new timestamp, rarely: most events tie
			}
		}
		for len(ref) > 0 {
			if ev := q.pop(); ev != ref[0] {
				t.Fatalf("seed %d drain: pop out of reference order", seed)
			}
			ref = ref[1:]
		}
		if q.pop() != nil {
			t.Fatalf("seed %d: pop on a drained queue returned an event", seed)
		}
	}
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
// successor). The random arm spreads 512 chains over 2 µs of latencies;
// the ties arm is the fabric's host tickers — 32 chains in 32 domains
// re-arming with one constant period, so every compare falls through
// the timestamp to the domain.
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
}

func stepN(b *testing.B, e *Engine) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}
