package sim

import (
	"fmt"
	"math/bits"
)

// This file holds the engines' pending-event queue, used by the serial
// Engine and by every shard and the global queue of Parallel. It pops
// events in the total order (time, src, seq).
//
// The fabric's link latencies, serialization times and host tickers are
// quantized, so the queue holds many events over few distinct times:
// ~196 events over ~22 times on cmd/bench's fabric_serial (DESIGN.md,
// "Event queue choice"). So the queue is bucketed by exact time: a
// 4-ary min-heap orders the distinct times alone (a one-word,
// branch-free compare), and each time's events are chained through
// Event.next in push order. A time becomes current without a sort. Its
// events have few sources (on fabric_serial an instant holds ~37
// events from ~9 domains), and a domain's events share src and reach
// the queue in seq order. So advance walks them into one lane per
// domain, keeping push order, and splice links the lanes a bitmap
// marks non-empty, lowest domain first, into one run that pops read
// front to back: that is (src, seq) order. An event below its lane's
// last seq is walked into place, so the order never rests on push
// order. A bucket has no remove: cancelled events stay queued and are
// recycled when popped.

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

// noTime is evq.cur when no time is current. It is above every event
// time (which is never negative: scheduling before now panics and the
// clock starts at zero).
const noTime = ^uint64(0)

const cacheBits = 6 // the bucket cache has 1<<cacheBits entries

// bucket is one time-heap entry: a time and the first of its events,
// which chain through Event.next in push order.
type bucket struct {
	at   uint64
	head *Event
}

// tail is one bucket-cache entry: a queued bucket's time and last event.
type tail struct {
	at uint64
	ev *Event // nil when the entry is empty
}

// lane is one domain's events of the time being made current, in seq
// order, chained through Event.next.
type lane struct{ head, last *Event }

// laneCap bounds the domains with a lane: one bitmap word per 64
// lanes, one summary bit per word. An emunet network has a domain per
// switch and two more (14 on cmd/bench's fabrics).
const laneCap = 64 * 64

func keyOf(ev *Event) uint64 { return uint64(ev.src)<<seqBits | ev.seq }

// before reports a < b as 1 or 0, without branching.
func before(a, b uint64) int {
	_, borrow := bits.Sub64(a, b, 0)
	return int(borrow)
}

// evq is one execution context's pending-event queue. The run chains
// the current time's unread events in key order; every later event
// sits in a bucket of the time heap. A push appends to its time's
// bucket when the cache still holds that bucket's tail, so a time has
// more than one bucket only when the cache lost its first; they join
// when the time becomes current. The lanes, their bitmap and the spill
// are empty except inside advance.
type evq struct {
	h     []bucket
	cache [1 << cacheBits]tail
	run   *Event
	cur   uint64 // the run's time (0 in a new queue), noTime after retire
	lanes [laneCap]lane
	mask  [laneCap / 64]uint64 // bit s%64 of word s/64: lane s is non-empty
	sum   uint64               // bit w: mask[w] is non-zero
	spill *Event               // domains from laneCap up, in key order
}

// cacheAt is time at's entry in the bucket cache.
func cacheAt(at uint64) uint64 { return at * 0x9e3779b97f4a7c15 >> (64 - cacheBits) }

//speedlight:hotpath
//speedlight:pool-transfer ev
func (q *evq) push(ev *Event) {
	at := uint64(ev.at)
	if at == q.cur {
		insert(&q.run, ev)
		return
	}
	if at < q.cur && q.cur != noTime {
		q.retire()
	}
	ev.next = nil
	c := &q.cache[cacheAt(at)]
	if c.ev != nil && c.at == at {
		c.ev.next = ev
		c.ev = ev
		return
	}
	*c = tail{at, ev}
	q.h = append(q.h, bucket{})
	q.up(len(q.h)-1, bucket{at, ev})
}

// insert links ev into the key-ordered chain at *p, after every event
// whose key is below its own.
//
//speedlight:hotpath
//speedlight:pool-transfer ev
func insert(p **Event, ev *Event) {
	k := keyOf(ev)
	for *p != nil && keyOf(*p) < k {
		p = &(*p).next
	}
	ev.next = *p
	*p = ev
}

// retire returns the run's unread events to buckets and makes no time
// current. It runs only when an event is pushed before the current
// time, which neither engine does (each pops an event only to execute
// it, and no context schedules before its clock); it keeps the queue a
// total order regardless.
func (q *evq) retire() {
	ev := q.run
	q.run, q.cur = nil, noTime
	for ev != nil {
		next := ev.next
		q.push(ev)
		ev = next
	}
}

// nextAt returns the time of the earliest queued event (cancelled or
// not), or maxTime when the queue is empty. Unlike pop it makes no time
// current, so a later push of an earlier time stays cheap.
//
//speedlight:hotpath
func (q *evq) nextAt() Time {
	if q.run != nil {
		return Time(q.cur)
	}
	if len(q.h) == 0 {
		return maxTime
	}
	return Time(q.h[0].at)
}

// pop removes and returns the earliest event (cancelled or not), or nil
// when the queue is empty.
//
//speedlight:hotpath
func (q *evq) pop() *Event {
	if ev := q.run; ev != nil {
		q.run = ev.next
		return ev
	}
	if len(q.h) == 0 {
		return nil
	}
	return q.advance()
}

// advance makes the earliest bucketed time current and pops its first
// event. A lone event is returned directly; otherwise the time's
// buckets are walked into the lanes and spliced into the run.
//
//speedlight:hotpath
func (q *evq) advance() *Event {
	at := q.h[0].at
	q.cur = at
	ev := q.take()
	if ev.next == nil && (len(q.h) == 0 || q.h[0].at != at) {
		return ev
	}
	for {
		for ev != nil {
			next := ev.next
			q.add(ev)
			ev = next
		}
		if len(q.h) == 0 || q.h[0].at != at {
			break
		}
		ev = q.take()
	}
	q.splice()
	ev = q.run
	q.run = ev.next
	return ev
}

// take removes the heap's top bucket, and its tail from the cache, and
// returns the bucket's first event.
//
//speedlight:hotpath
func (q *evq) take() *Event {
	b := q.h[0]
	if c := &q.cache[cacheAt(b.at)]; c.at == b.at {
		c.ev = nil
	}
	n := len(q.h) - 1
	x := q.h[n]
	q.h = q.h[:n]
	if n > 0 {
		q.down(0, x)
	}
	return b.head
}

// add puts an event of the time being made current into its domain's
// lane. A domain's events reach the queue in seq order, so add almost
// always appends; an event below its lane's last (a time split over
// two buckets, the later one popped first) is walked into its place.
//
//speedlight:hotpath
//speedlight:pool-transfer ev
func (q *evq) add(ev *Event) {
	s := uint32(ev.src)
	if s >= laneCap {
		insert(&q.spill, ev)
		return
	}
	l := &q.lanes[s]
	switch {
	case l.head == nil:
		ev.next = nil
		*l = lane{ev, ev}
		q.mask[s/64] |= 1 << (s % 64)
		q.sum |= 1 << (s / 64)
	case ev.seq > l.last.seq:
		ev.next = nil
		l.last.next = ev
		l.last = ev
	default:
		insert(&l.head, ev)
	}
}

// splice links the non-empty lanes, lowest domain first, and then the
// spill into the run, emptying them.
//
//speedlight:hotpath
func (q *evq) splice() {
	p := &q.run
	for ; q.sum != 0; q.sum &= q.sum - 1 {
		w := bits.TrailingZeros64(q.sum)
		for m := q.mask[w]; m != 0; m &= m - 1 {
			l := &q.lanes[w*64+bits.TrailingZeros64(m)]
			*p = l.head
			p = &l.last.next
			l.head = nil
		}
		q.mask[w] = 0
	}
	*p, q.spill = q.spill, nil
}

func (q *evq) forEach(f func(*Event)) {
	for ev := q.run; ev != nil; ev = ev.next {
		f(ev)
	}
	for _, b := range q.h {
		for ev := b.head; ev != nil; ev = ev.next {
			f(ev)
		}
	}
}

// up places x at hole i or above it.
//
//speedlight:hotpath
func (q *evq) up(i int, x bucket) {
	h := q.h
	for i > 0 {
		p := (i - 1) >> 2
		if before(x.at, h[p].at) == 0 {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = x
}

// down places x at hole i or below it, picking the least of four
// children by arithmetic select: the only data-dependent branch per
// level is the loop exit.
//
//speedlight:hotpath
func (q *evq) down(i int, x bucket) {
	h := q.h
	n := len(h)
	for {
		c := 4*i + 1
		if c+4 > n {
			// At most three children, all leaves.
			m := c
			for j := c + 1; j < n; j++ {
				m += (j - m) * before(h[j].at, h[m].at)
			}
			if m < n && before(h[m].at, x.at) != 0 {
				h[i] = h[m]
				i = m
			}
			break
		}
		kids := h[c : c+4 : c+4]
		lo := before(kids[1].at, kids[0].at)
		hi := 2 + before(kids[3].at, kids[2].at)
		m := lo + (hi-lo)*before(kids[hi].at, kids[lo].at)
		if before(kids[m].at, x.at) == 0 {
			break
		}
		h[i] = kids[m]
		i = c + m
	}
	h[i] = x
}
