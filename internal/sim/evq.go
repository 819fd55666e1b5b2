package sim

import (
	"fmt"
	"math/bits"
)

// This file holds the engines' pending-event queue: one 4-ary min-heap
// over the total order (time, src, seq), used by the serial Engine and
// by every shard and the global queue of Parallel.
//
// The fabric's tickers fire dozens of events on one nanosecond, so a
// field-by-field compare falls through time to src and seq on most
// sifts and its branches mispredict; that, more than dispatch or depth,
// is what an event queue costs here (DESIGN.md, "Event queue choice").
// So each slot carries its key inline as two words, two slots compare
// by the borrow out of a two-word subtraction, and a sift-down picks
// the least of four children by arithmetic select: the only
// data-dependent branch per level is the loop exit.

// The key word packs (src, seq) as src<<seqBits | seq. Proc rejects
// domains the src field cannot hold and the schedule counters reject
// sequence numbers the seq field cannot hold, so a key never wraps
// into mis-ordering.
const (
	seqBits    = 40
	maxSeq     = 1 << seqBits
	maxDomains = 1 << (63 - seqBits)
)

// checkDomain panics on a domain no Proc can schedule as.
func checkDomain(domain int) {
	if domain < 0 {
		panic(fmt.Sprintf("sim: negative domain %d", domain))
	}
	if domain >= maxDomains {
		panic(fmt.Sprintf("sim: domain %d out of range: the event key holds domains below 2^23", domain))
	}
}

// seqOverflow is the schedule counters' cold path.
func seqOverflow(domain int) {
	panic(fmt.Sprintf("sim: domain %d scheduled 2^40 events: its sequence counter overflows the event key", domain))
}

// slot is one heap entry: the event and its ordering key. at is the
// event's time, which is never negative (scheduling before now panics
// and the clock starts at zero).
type slot struct {
	at  uint64
	key uint64
	ev  *Event
}

// less reports a < b in (at, key) order as 1 or 0, without branching.
func less(a, b *slot) int {
	_, borrow := bits.Sub64(a.key, b.key, 0)
	_, borrow = bits.Sub64(a.at, b.at, borrow)
	return int(borrow)
}

// evq is one execution context's pending-event queue. Every queued
// event's index field names its own slot, so remove is O(log n).
type evq struct {
	s []slot
}

//speedlight:hotpath
//speedlight:pool-transfer ev
func (q *evq) push(ev *Event) {
	q.s = append(q.s, slot{})
	q.up(len(q.s)-1, slot{uint64(ev.at), uint64(ev.src)<<seqBits | ev.seq, ev})
}

// pop removes and returns the earliest event (cancelled or not), or nil
// when the queue is empty.
//
//speedlight:hotpath
func (q *evq) pop() *Event {
	if len(q.s) == 0 {
		return nil
	}
	ev := q.s[0].ev
	q.remove(ev)
	return ev
}

// peek returns the earliest event without removing it, or nil.
//
//speedlight:hotpath
func (q *evq) peek() *Event {
	if len(q.s) == 0 {
		return nil
	}
	return q.s[0].ev
}

// remove unlinks an event that is currently queued (ev.index >= 0): the
// last slot takes its place and sifts to where it belongs.
//
//speedlight:hotpath
func (q *evq) remove(ev *Event) {
	i := ev.index
	ev.index = -1
	n := len(q.s) - 1
	x := q.s[n]
	q.s[n] = slot{}
	q.s = q.s[:n]
	if i == n {
		return
	}
	if i > 0 && less(&x, &q.s[(i-1)>>2]) != 0 {
		q.up(i, x)
	} else {
		q.down(i, x)
	}
}

func (q *evq) forEach(f func(*Event)) {
	for i := range q.s {
		f(q.s[i].ev)
	}
}

// up places x at hole i or above it.
//
//speedlight:hotpath
func (q *evq) up(i int, x slot) {
	s := q.s
	for i > 0 {
		p := (i - 1) >> 2
		if less(&x, &s[p]) == 0 {
			break
		}
		s[i] = s[p]
		s[i].ev.index = i
		i = p
	}
	s[i] = x
	x.ev.index = i
}

// down places x at hole i or below it.
//
//speedlight:hotpath
func (q *evq) down(i int, x slot) {
	s := q.s
	n := len(s)
	for {
		c := 4*i + 1
		if c+4 > n {
			// At most three children, all leaves.
			m := c
			for j := c + 1; j < n; j++ {
				m += (j - m) * less(&s[j], &s[m])
			}
			if m < n && less(&s[m], &x) != 0 {
				s[i] = s[m]
				s[i].ev.index = i
				i = m
			}
			break
		}
		kids := s[c : c+4 : c+4]
		lo := less(&kids[1], &kids[0])
		hi := 2 + less(&kids[3], &kids[2])
		m := lo + (hi-lo)*less(&kids[hi], &kids[lo])
		if less(&kids[m], &x) == 0 {
			break
		}
		s[i] = kids[m]
		s[i].ev.index = i
		i = c + m
	}
	s[i] = x
	x.ev.index = i
}
