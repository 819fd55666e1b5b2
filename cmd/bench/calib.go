package main

import (
	"syscall"
	"time"
	"unsafe"
)

// The host-speed reference.
//
// The benchmark runs on a few cores of a shared host whose speed
// wanders with what the neighbours do: by 10-40% over seconds to
// minutes, for every workload at once (README, "Noise"). No statistic
// over one run's repetitions removes that, because a whole run can sit
// inside one such spell. So the benchmark times one batch of a fixed
// reference kernel before and after every slice of a workload. The
// host speed beside a slice is the mean rate of its two batches over
// the kernel's nominal rate, and every host-time rate sampled on the
// slice is divided by it: events per second of a host on which the
// kernel runs at its nominal rate.
//
// The kernel is a toy discrete-event loop - pop the earliest of 4096
// events off a binary heap, touch a random word of a 16 MB arena,
// reschedule - because that is the resource mix of the program under
// test: dependent compares in L1/L2, and pointer-chasing misses into
// the shared cache and memory. It lives here and calls nothing of the
// repository, so no change to the program moves it. A pure ALU kernel
// was tried and moves a third as much as the workloads do; a pure
// pointer chase moves without them.

const (
	refEvents = 4096
	refArena  = 2 << 20 // words: 16 MB
	// refNominal is the kernel's median rate, steps per second, on the
	// 2-CPU box the benchmark was sized on, in a quiet spell. Any
	// constant would do; this one keeps the reported rates near what
	// that box measures.
	refNominal = 5.2e6
)

type refEvent struct {
	at  uint64
	idx uint32
}

type hostRef struct {
	pq    []refEvent
	arena []uint64
	x     uint64
}

// newHostRef maps the arena outside the Go heap: 16 MB of live heap
// would halve how often the collector runs in the program under test.
// Where the mapping is refused the arena is a heap slice after all.
func newHostRef() *hostRef {
	h := &hostRef{pq: make([]refEvent, 0, refEvents), x: 88172645463325252}
	mem, err := syscall.Mmap(-1, 0, refArena*8, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err == nil {
		h.arena = unsafe.Slice((*uint64)(unsafe.Pointer(&mem[0])), refArena)
	} else {
		h.arena = make([]uint64, refArena)
	}
	for i := 0; i < refEvents; i++ {
		h.push(refEvent{at: uint64(i * 7919 % refEvents), idx: uint32(i * 511)})
	}
	return h
}

func (h *hostRef) push(e refEvent) {
	h.pq = append(h.pq, e)
	for i := len(h.pq) - 1; i > 0; {
		parent := (i - 1) / 2
		if h.pq[parent].at <= h.pq[i].at {
			break
		}
		h.pq[parent], h.pq[i] = h.pq[i], h.pq[parent]
		i = parent
	}
}

func (h *hostRef) pop() refEvent {
	top := h.pq[0]
	n := len(h.pq) - 1
	h.pq[0] = h.pq[n]
	h.pq = h.pq[:n]
	for i := 0; ; {
		least := i
		if l := 2*i + 1; l < n && h.pq[l].at < h.pq[least].at {
			least = l
		}
		if r := 2*i + 2; r < n && h.pq[r].at < h.pq[least].at {
			least = r
		}
		if least == i {
			break
		}
		h.pq[i], h.pq[least] = h.pq[least], h.pq[i]
		i = least
	}
	return top
}

// batch runs steps steps of the kernel and returns its rate in steps
// per second. It allocates nothing.
func (h *hostRef) batch(steps int) float64 {
	start := time.Now()
	x := h.x
	for i := 0; i < steps; i++ {
		e := h.pop()
		h.arena[e.idx] += e.at
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		e.at += 1 + x%refEvents
		e.idx = uint32(x>>20) % refArena
		h.push(e)
	}
	h.x = x
	return float64(steps) / time.Since(start).Seconds()
}

// ref is the process's one reference kernel, built by the first run
// (newRun), which also runs one untimed batch to touch the arena.
var ref *hostRef

// pacer pairs every slice of one repetition with the reference batches
// run just before and just after it.
type pacer struct {
	r    *run
	prev float64       // host speed of the latest batch
	sum  float64       // of every batch of the repetition
	n    int           // batches
	took time.Duration // host time of the batches: no part of the repetition's
}

// newPacer runs the repetition's first batch.
func (r *run) newPacer() *pacer {
	p := &pacer{r: r}
	p.prev = p.batch()
	return p
}

func (p *pacer) batch() float64 {
	p.r.tr.begin("calibrate")
	start := time.Now()
	speed := ref.batch(p.r.sc.refSteps) / refNominal
	p.took += time.Since(start)
	p.r.tr.end()
	p.r.hostSpeeds = append(p.r.hostSpeeds, speed)
	p.sum += speed
	p.n++
	return speed
}

// mark closes a slice: it runs the batch after it and sets the slice's
// host speed to the mean of the batches on either side.
func (p *pacer) mark(sl slice) slice {
	next := p.batch()
	sl.speed = (p.prev + next) / 2
	p.prev = next
	return sl
}

// speed is the repetition's host speed: the mean of its batches.
func (p *pacer) speed() float64 { return p.sum / float64(p.n) }
