package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"speedlight/internal/sim"
)

// options are the command-line choices that reach a workload.
type options struct {
	seed    int64
	seconds float64 // host seconds one workload's measured part may take
	trace   bool
	smoke   bool
}

// scale is every size a workload uses. The full sizes are the
// benchmark; the smoke sizes exist so the test suite can run all five
// workloads in seconds and check the plumbing, not the numbers.
type scale struct {
	minReps int

	// fabric_*: one ticker per host, snapshots on a fixed virtual grid.
	fabricTick  sim.Duration
	fabricSnaps int          // snapshots per repetition
	fabricEvery sim.Duration // virtual time between snapshots
	fabricWarm  sim.Duration
	fabricDrain sim.Duration

	// snapshot_storm.
	stormEpochs     int
	stormQueryEvery int // epochs between query slices
	stormStates     int
	stormDiffs      int
	stormWarmEpochs int
	bisectTo        float64      // Fig. 10 bisection stops at hi/lo <= bisectTo
	bisectTrial     sim.Duration // virtual time each candidate rate is held

	// live_chan / wire_udp.
	rtWindow    time.Duration // measured wall window per repetition
	rtSlices    int           // equal wall slices the window is driven in
	rtWarmPkts  int
	rtWarmSnaps int
	rtCSPhase   time.Duration // channel-state phase of the traced run

	cardBatch time.Duration // target wall time of one cost-card batch
	refSteps  int           // steps of one reference-kernel batch
}

var fullScale = scale{
	minReps:         3,
	fabricTick:      2 * sim.Microsecond,
	fabricSnaps:     4,
	fabricEvery:     10 * sim.Millisecond,
	fabricWarm:      sim.Millisecond,
	fabricDrain:     sim.Millisecond,
	stormEpochs:     1000,
	stormQueryEvery: 100,
	stormStates:     200,
	stormDiffs:      50,
	stormWarmEpochs: 2,
	bisectTo:        1.02,
	bisectTrial:     500 * sim.Millisecond,
	rtWindow:        1200 * time.Millisecond,
	rtSlices:        8,
	rtWarmPkts:      20000,
	rtWarmSnaps:     10,
	rtCSPhase:       2 * time.Second,
	cardBatch:       10 * time.Millisecond,
	refSteps:        100_000,
}

var smokeScale = scale{
	minReps:         2,
	fabricTick:      20 * sim.Microsecond,
	fabricSnaps:     1,
	fabricEvery:     8 * sim.Millisecond,
	fabricWarm:      200 * sim.Microsecond,
	fabricDrain:     sim.Millisecond,
	stormEpochs:     20,
	stormQueryEvery: 10,
	stormStates:     20,
	stormDiffs:      5,
	stormWarmEpochs: 1,
	bisectTo:        1.25,
	bisectTrial:     200 * sim.Millisecond,
	rtWindow:        150 * time.Millisecond,
	rtSlices:        2,
	rtWarmPkts:      2000,
	rtWarmSnaps:     3,
	rtCSPhase:       200 * time.Millisecond,
	cardBatch:       time.Millisecond,
	refSteps:        2_000,
}

// metric is one reported number: the order statistics of its
// per-repetition samples, with its unit.
type metric struct {
	Unit string `json:"unit"`
	summary
}

// run collects one set of repetitions of one workload: the samples of
// every metric, the attempted/failed tally and verification failures.
// A run with a tracer is the traced run; it also attaches Registry and
// Journal to the program.
type run struct {
	opt     options
	sc      scale
	tr      *tracer
	samples map[string][]float64
	digest  string
	fired   uint64    // DES: events per repetition, equal across repetitions
	walls   []float64 // measured region of each repetition, host seconds
	// hostSpeeds are the reference kernel's batch rates over its nominal
	// rate, in run order (calib.go).
	hostSpeeds []float64
	pending    []float64 // DES: simulator events pending at slice boundaries

	attempted, failed int64
	fails             []string
}

func newRun(opt options, tr *tracer) *run {
	sc := fullScale
	if opt.smoke {
		sc = smokeScale
	}
	if ref == nil {
		ref = newHostRef()
		ref.batch(fullScale.refSteps)
	}
	return &run{opt: opt, sc: sc, tr: tr, samples: map[string][]float64{}, hostSpeeds: make([]float64, 0, 256)}
}

func (r *run) traced() bool { return r.tr != nil }

// add records one sample of a metric. The name must be in the spec
// table, so a typo fails the first run instead of dropping a number.
func (r *run) add(name string, v float64) {
	if _, ok := specByName[name]; !ok {
		panic("bench: metric " + name + " is not in the spec table")
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.failf(1, "%s is %v: the repetition produced nothing to measure", name, v)
		return
	}
	r.samples[name] = append(r.samples[name], v)
}

// slice is one cut of a repetition's measured region: the host time it
// took, what the program completed in it, and the host's speed beside
// it (pacer.mark). The host-time rates are sampled per slice, several
// to a repetition, so that a burst of interference spoils a few
// samples and not a whole repetition, and each sample is divided by
// its own slice's host speed.
type slice struct {
	wall           time.Duration
	speed          float64
	ops            uint64 // simulator events (DES) or delivered packets (realtime)
	packets, snaps uint64
	// DES: the snapshots that completed in the slice, as a range of the
	// network's completion-ordered list. countGood turns it into snaps
	// once the repetition's snapshots have been verified.
	snapLo, snapHi int
}

// countGood sets every slice's snaps to the verified snapshots among
// those that completed in it.
func countGood(slices []slice, good []bool) []slice {
	for i := range slices {
		for _, ok := range good[slices[i].snapLo:slices[i].snapHi] {
			if ok {
				slices[i].snaps++
			}
		}
	}
	return slices
}

// addSlices records one sample of every rate per slice. It runs after
// the measured region, so the samples' memory is not charged to the
// program.
func (r *run) addSlices(slices []slice, rates ...string) {
	for _, sl := range slices {
		ws := sl.wall.Seconds() * sl.speed // seconds of the reference host
		for _, name := range rates {
			switch name {
			case "ops_per_s", "events_per_s":
				r.add(name, float64(sl.ops)/ws)
			case "packets_per_s":
				r.add(name, float64(sl.packets)/ws)
			case "snapshots_per_s":
				r.add(name, float64(sl.snaps)/ws)
			default:
				panic("bench: " + name + " is not a per-slice rate")
			}
		}
	}
}

// failf records a failed operation or a failed output check.
func (r *run) failf(n int64, format string, args ...any) {
	r.failed += n
	if len(r.fails) < 20 {
		r.fails = append(r.fails, fmt.Sprintf(format, args...))
	}
}

// setDigest checks the repetition's output digest against the previous
// repetitions of the same run: same seed, same inputs, same outputs.
func (r *run) setDigest(d string) {
	if r.digest != "" && r.digest != d {
		r.failf(1, "snapshot digest %s differs from earlier repetition's %s", d, r.digest)
	}
	r.digest = d
}

// setFired checks that a fixed-work repetition fired as many simulator
// events as the ones before it.
func (r *run) setFired(n uint64) {
	if r.fired != 0 && r.fired != n {
		r.failf(1, "repetition fired %d events, earlier repetition %d", n, r.fired)
	}
	r.fired = n
}

// med is the metric's reported value over the samples so far; NaN when
// there are none.
func (r *run) med(name string) float64 { return median(r.samples[name]) }

// repeat runs rep until the time budget is spent, at least minReps
// times. The tracer's repetition id follows the loop.
func (r *run) repeat(budget time.Duration, rep func(r *run)) int {
	start := time.Now()
	n := 0
	for n < r.sc.minReps || time.Since(start) < budget {
		if r.tr != nil {
			r.tr.rep = n
		}
		rep(r)
		n++
		if r.opt.smoke && n >= r.sc.minReps {
			break
		}
	}
	return n
}

// metrics summarizes every sampled metric. Virtual-time metrics and
// counts of the deterministic workloads must repeat exactly; a
// difference between repetitions is an output failure.
func (r *run) metrics(exact bool) map[string]metric {
	out := map[string]metric{}
	if len(r.samples["process.host_speed"]) == 0 {
		for _, speed := range r.hostSpeeds {
			r.add("process.host_speed", speed)
		}
	}
	names := make([]string, 0, len(r.samples))
	for name := range r.samples {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		sp := specByName[name]
		s := summarize(r.samples[name])
		if exact && sp.exact() && s.Min != s.Max {
			r.failf(1, "%s must repeat exactly, got %v..%v over %d repetitions", name, s.Min, s.Max, s.N)
		}
		out[name] = metric{Unit: sp.Unit, summary: s}
	}
	return out
}

// memDelta reads the allocator's counters around a measured region.
type memDelta struct{ before runtime.MemStats }

func startMem() *memDelta {
	m := &memDelta{}
	runtime.ReadMemStats(&m.before)
	return m
}

func (m *memDelta) stop() (allocBytes uint64, gcPause time.Duration) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - m.before.TotalAlloc,
		time.Duration(after.PauseTotalNs - m.before.PauseTotalNs)
}
