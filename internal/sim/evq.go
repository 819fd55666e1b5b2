package sim

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
)

// This file holds the engines' pending-event queue, used by the serial
// Engine and by every shard and the global queue of Parallel. It pops
// events in the total order (time, src, seq).
//
// The fabric's link latencies, serialization times and host tickers are
// quantized, so the queue holds many events over few distinct times:
// ~196 events over ~22 times on cmd/bench's fabric_serial, ~24 of them
// at the earliest time (DESIGN.md, "Event queue choice"). So the queue
// is bucketed by exact time: a 4-ary min-heap orders the distinct times
// alone (a one-word, branch-free compare), each time's events are
// chained through Event.next in push order, and when a time becomes
// current its events are sorted by (src, seq) once, into a run that
// pops read front to back. A bucket has no remove: cancelled events
// stay queued and are recycled when popped.

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

// slot is one run entry: an event of the current time and its key.
type slot struct {
	key uint64
	ev  *Event
}

func keyOf(ev *Event) uint64 { return uint64(ev.src)<<seqBits | ev.seq }

// before reports a < b as 1 or 0, without branching.
func before(a, b uint64) int {
	_, borrow := bits.Sub64(a, b, 0)
	return int(borrow)
}

// evq is one execution context's pending-event queue. The run holds the
// current time's events sorted by key, run[ri:] unread; every later
// event sits in a bucket of the time heap. A push appends to its time's
// bucket when the cache still holds that bucket's tail, so a time has
// more than one bucket only when the cache lost its first; they merge
// when the time becomes current.
type evq struct {
	h     []bucket
	cache [1 << cacheBits]tail
	run   []slot
	tmp   []slot // sortRun's second buffer
	ends  []int  // sortRun's stretch ends
	ri    int
	cur   uint64 // the run's time (0 in a new queue), noTime after retire
}

// cacheAt is time at's entry in the bucket cache.
func cacheAt(at uint64) uint64 { return at * 0x9e3779b97f4a7c15 >> (64 - cacheBits) }

//speedlight:hotpath
//speedlight:pool-transfer ev
func (q *evq) push(ev *Event) {
	at := uint64(ev.at)
	if at == q.cur {
		q.insert(ev)
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

// insert places an event of the current time into the run's unread part.
//
//speedlight:hotpath
//speedlight:pool-transfer ev
func (q *evq) insert(ev *Event) {
	if q.ri == len(q.run) {
		q.run, q.ri = q.run[:0], 0
	}
	k := keyOf(ev)
	i, _ := slices.BinarySearchFunc(q.run[q.ri:], k, slotVsKey)
	q.run = slices.Insert(q.run, q.ri+i, slot{k, ev})
}

func slotVsKey(s slot, k uint64) int { return cmp.Compare(s.key, k) }

// retire returns the run's unread events to buckets and makes no time
// current. It runs only when an event is pushed before the current
// time, which neither engine does (each pops an event only to execute
// it, and no context schedules before its clock); it keeps the queue a
// total order regardless.
func (q *evq) retire() {
	rest := q.run[q.ri:] // no push writes the run while no time is current
	q.run, q.ri, q.cur = q.run[:0], 0, noTime
	for _, s := range rest {
		q.push(s.ev)
	}
}

// nextAt returns the time of the earliest queued event (cancelled or
// not), or maxTime when the queue is empty. Unlike pop it makes no time
// current, so a later push of an earlier time stays cheap.
//
//speedlight:hotpath
func (q *evq) nextAt() Time {
	if q.ri < len(q.run) {
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
	if q.ri < len(q.run) {
		ev := q.run[q.ri].ev
		q.ri++
		return ev
	}
	if len(q.h) == 0 {
		return nil
	}
	return q.advance()
}

// advance makes the earliest bucketed time current and pops its first
// event. A lone event needs no run: it is returned directly.
//
//speedlight:hotpath
func (q *evq) advance() *Event {
	at := q.h[0].at
	q.cur = at
	q.run, q.ri = q.run[:0], 0
	ev := q.take()
	if ev.next == nil && (len(q.h) == 0 || q.h[0].at != at) {
		return ev
	}
	for {
		for ; ev != nil; ev = ev.next {
			q.run = append(q.run, slot{keyOf(ev), ev})
		}
		if len(q.h) == 0 || q.h[0].at != at {
			break
		}
		ev = q.take()
	}
	q.sortRun()
	q.ri = 1
	return q.run[0].ev
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

// sortRun orders the run by key. A run is its time's chains in push
// order, and the events one instant pushes ascend, so a run is a few
// ascending stretches pushed by different instants: on fabric_serial
// about seven in a run of 48, which is far from sorted (an insertion
// sort would move each event some seven places). So the stretches
// merge pairwise through a second buffer, ⌈log2 stretches⌉ passes, and
// a run already in order costs one scan.
//
//speedlight:hotpath
func (q *evq) sortRun() {
	r := q.run
	e := q.ends[:0]
	for i := 0; i < len(r); {
		i = ascent(r, i)
		e = append(e, i)
	}
	q.ends = e
	t := slices.Grow(q.tmp[:0], len(r))[:len(r)]
	for len(e) > 1 {
		lo, n := 0, 0
		for p := 0; p < len(e); p += 2 {
			mid, hi := e[p], e[p]
			if p+1 < len(e) {
				hi = e[p+1]
			}
			merge(t[lo:hi], r[lo:hi], mid-lo)
			e[n] = hi
			n++
			lo = hi
		}
		e = e[:n]
		r, t = t, r
	}
	q.run, q.tmp = r, t[:0]
}

// ascent returns the end of the ascending stretch of r that starts at i.
//
//speedlight:hotpath
func ascent(r []slot, i int) int {
	for i++; i < len(r) && r[i-1].key < r[i].key; i++ {
	}
	return i
}

// merge writes r[:mid] and r[mid:], each ascending, merged into t.
// Which side gives the next slot is data, not control: stretches
// interleave, so a branch on it would mispredict about every other
// slot, and the source index is picked by arithmetic instead.
//
//speedlight:hotpath
func merge(t, r []slot, mid int) {
	i, j, k := 0, mid, 0
	for i < mid && j < len(r) {
		c := before(r[j].key, r[i].key)
		t[k] = r[i+(j-i)*c]
		i += 1 - c
		j += c
		k++
	}
	k += copy(t[k:], r[i:mid])
	copy(t[k:], r[j:])
}

func (q *evq) forEach(f func(*Event)) {
	for _, s := range q.run[q.ri:] {
		f(s.ev)
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
