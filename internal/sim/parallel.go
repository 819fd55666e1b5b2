package sim

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strconv"
	"sync/atomic"

	"speedlight/internal/telemetry"
)

// Parallel is the sharded implementation of Sim: a conservative
// parallel discrete-event engine built on per-shard-pair channel
// clocks. Domains (one per emulated switch) are partitioned across
// shards; each shard owns an event queue drained by one worker
// goroutine.
//
// Synchronization is per pair, not fleet-wide. Every shard publishes a
// monotone clock pub_i — a lower bound on the time of anything it will
// ever execute or emit again — through an atomic channel-clock table.
// A shard's execution bound is the min over its actual inbound
// neighbor pairs of (pub_j + L_ji), where L_ji is the pair's declared
// lookahead (derived from topology at wiring time via SetShardLinks;
// the default is a complete graph at the engine-wide lookahead). Shards
// with slack therefore run ahead on their own, instead of parking at a
// fleet-wide horizon every lookahead interval: between two GlobalDomain
// events the coordinator starts one epoch, and inside it the workers
// free-run under the pair clocks with no barrier at all.
//
// Cross-shard handoff is a per-pair SPSC lock-free ring (evRing)
// instead of a mutex mailbox merged at barriers. The producer pushes
// during event execution and publishes its clock afterwards; the
// consumer loads the producer's clock before draining the ring, so any
// push the drain misses is from an event at or above the loaded clock
// and the pair bound stays sound. Arrivals merge into the consumer's
// queue in (time, src, seq) key order, which keeps journal, audit and
// snapshot bytes identical at every shard count and GOMAXPROCS.
//
// GlobalDomain events still serialize: they run between epochs, on the
// coordinating goroutine, with every worker parked — an epoch's fence
// never crosses a pending global event. Shard-to-global sends travel
// on per-shard rings the coordinator drains while the epoch runs, and
// execute at the fence in global key order.
//
// When only one shard has work below the fence the coordinator drains
// it inline (a solo run) up to its minimum outbound lookahead: the same
// drain without the dispatch.
//
// Every pair needs positive lookahead: under a zero-lookahead pair no
// clock ever gets ahead of its neighbor's, so nothing could free-run.
// Such a pair is rejected, at SetShardLinks or (default graph) at the
// first Run*; a link with no propagation delay is not a network link.
//
// Determinism. Event order within a shard follows the same
// (time, src, seq) key as the serial Engine; cross-shard events carry
// keys assigned by their (deterministic) scheduling domain, so merge
// order is independent of goroutine interleaving, GOMAXPROCS and shard
// count. A cross-shard send arriving below the pair clock of its
// source is a causality violation and panics — it means the declared
// pair lookahead exceeds the actual cross-shard latency.
//
// Event pooling. Each shard (and the coordinator, via the global
// pseudo-shard) keeps its own event free list. An event is drawn from
// the scheduling context's pool and returned to the pool of whichever
// context pops it, so cross-shard events simply migrate between free
// lists through the rings. No pool is ever touched by two goroutines
// at once: workers only reach their own shard's pool, and the
// coordinator only runs while workers are parked.
//
// Context rules (the serial engine forgives these; this one does not):
// domain state must only be touched by its own domain's events or by
// GlobalDomain events; a domain's Proc must not be used from another
// (non-global) domain's events; Rand is driver/global-context only.
type Parallel struct {
	lookahead Duration
	now       Time // driver/global-context clock (low-water mark)
	// roundActive marks shard execution in flight (an epoch or an
	// inline solo run). Written by the coordinator strictly before
	// dispatching and after joining, so worker reads are ordered by the
	// dispatch channel and the barrier.
	roundActive bool
	// solo marks an inline single-shard run on the coordinator: no
	// other shard is executing, so cross-shard sends push straight into
	// the target queue instead of the rings.
	solo      bool
	finalized bool
	domains   []pardom
	shards    []*pshard
	global    *pshard // GlobalDomain-owned events, run by the coordinator
	rng       *rand.Rand
	seedSrc   *rand.Rand
	fired     uint64 // events executed in global context
	workersUp bool
	links     []ShardLink
	custom    bool // SetShardLinks was called: unlisted pairs panic
	ringCap   int  // per-pair ring capacity; settable before the first Run (tests)
	// wall is the injected wall-clock source for the barrier profiler
	// (nil = profiling disabled, zero cost). Virtual time cannot measure
	// synchronization skew — shards at the same fence burn different
	// amounts of real time — so this is the one place the engine reads a
	// real clock, and only through an injected func so the simulation
	// itself stays deterministic.
	wall       func() int64
	blockedVec *telemetry.CounterVec

	// Epoch coordination. quiet counts shards whose published clock
	// reached the fence; done counts workers that finished the
	// dispatched job — each worker's last act, so the coordinator's
	// load of the full count orders every shard's epoch writes (panic
	// value, profile accounting) before its reads: the one worker
	// join; epochDone releases quiesced workers from their
	// ring-draining duty; panics flags captured worker panics so the
	// coordinator stops waiting for quiescence.
	epochDone atomic.Bool
	quiet     atomic.Int32
	done      atomic.Int32
	panics    atomic.Int32
}

var _ Sim = (*Parallel)(nil)

// ShardLink declares one directed cross-shard channel and its
// conservative lookahead: no send from From to To ever arrives less
// than Lookahead after the sending event's time.
type ShardLink struct {
	From, To  int
	Lookahead Duration
}

// pardom is one domain's placement and schedule counter. The counter is
// only touched by the shard (or the parked-coordinator context)
// currently executing the domain; padding keeps neighboring domains'
// counters off one cache line.
type pardom struct {
	shard int32 // -1 = global
	seq   uint64
	_     [48]byte
}

// inPair is one inbound cross-shard channel: the source shard whose
// published clock bounds this consumer, the pair lookahead, and the
// SPSC ring arrivals travel on.
type inPair struct {
	src    *pshard
	srcIdx int
	la     Duration
	ring   *evRing
	// epochBlockedNs is written by the owning worker during an epoch
	// and folded by the coordinator after the barrier; the cumulative
	// field and counter are coordinator-context only.
	epochBlockedNs int64
	statBlockedNs  int64
	blockedC       *telemetry.Counter
}

// outPair is one outbound cross-shard channel. A negative lookahead
// marks an undeclared pair: sending on it panics, which is how a
// topology-derived link set catches placement drift.
type outPair struct {
	ring *evRing
	la   Duration
}

// stashedEv parks a cross-shard event a producer could not hand off
// because the epoch was torn down (another worker panicked) while its
// ring was full. The coordinator routes it after the barrier.
type stashedEv struct {
	tgt int // target shard, -1 = global
	ev  *Event
}

// pshard is one shard: an event queue, its pair-clock publication, its
// inbound/outbound rings, and the shard's event free list.
type pshard struct {
	q        evq
	pool     eventPool
	now      Time
	fired    uint64
	job      chan Time
	panicked any // panic captured by the worker, re-raised at the barrier
	idx      int

	in       []inPair
	out      []outPair // indexed by target shard
	gring    *evRing   // shard-to-global sends, drained by the coordinator
	minOutLa Duration  // min declared outbound lookahead (solo-run bound)
	overflow []stashedEv

	// pub is the shard's published channel clock: a lower bound on the
	// time of anything the shard will execute or emit again. Written
	// only by the owning worker during an epoch (and by the coordinator
	// between epochs); read by neighbor workers. Padded onto its own
	// cache line — it is the one hot cross-shard word.
	_   [64]byte
	pub atomic.Int64
	_   [56]byte

	// Profiling state. The epoch* fields are written by the owning
	// worker during an epoch and read by the coordinator after the
	// barrier; the cumulative fields and cached counters are
	// coordinator-context only.
	epochWorkNs int64
	epochWaitNs int64
	epochActive bool
	statRounds  uint64
	statWorkNs  int64
	statWaitNs  int64
	workC       *telemetry.Counter
	waitC       *telemetry.Counter
}

// NewParallel returns a sharded engine with the given worker shard
// count and conservative lookahead. The lookahead must not exceed the
// minimum virtual-time latency of any cross-shard interaction the
// simulation performs; larger values are detected at run time as
// causality violations. By default every ordered shard pair is a
// channel at this lookahead, which must then be positive (checked when
// the graph is frozen at the first Run*; a 1-shard engine has no pairs
// and takes any value); SetShardLinks narrows the set to the pairs the
// topology actually wires, with per-pair lookaheads. Randomness derives
// entirely from seed, exactly as in NewEngine.
func NewParallel(seed int64, shards int, lookahead Duration) *Parallel {
	if shards < 1 {
		shards = 1
	}
	p := &Parallel{
		lookahead: lookahead,
		rng:       rand.New(rand.NewSource(seed)),
		seedSrc:   rand.New(rand.NewSource(seed ^ 0x5eed_11a7)),
		global:    &pshard{},
		shards:    make([]*pshard, shards),
		domains:   []pardom{{shard: -1}}, // GlobalDomain
	}
	for i := range p.shards {
		p.shards[i] = &pshard{idx: i}
	}
	return p
}

// Shards returns the worker shard count.
func (p *Parallel) Shards() int { return len(p.shards) }

// SetShardLinks declares the directed cross-shard channels the
// simulation will actually use, replacing the default complete pair
// graph. Each link's lookahead must be a true lower bound on the
// latency of every send from From to To, and positive; a send on a
// pair not in the set panics. Duplicate pairs keep the smallest
// lookahead. Must be called before the first Run*.
func (p *Parallel) SetShardLinks(links []ShardLink) {
	if p.finalized {
		panic("sim: SetShardLinks after the first Run")
	}
	n := len(p.shards)
	for _, l := range links {
		if l.From < 0 || l.From >= n || l.To < 0 || l.To >= n {
			panic(fmt.Sprintf("sim: shard link %d->%d out of range [0,%d)", l.From, l.To, n))
		}
		if l.From == l.To {
			panic(fmt.Sprintf("sim: self shard link %d->%d", l.From, l.To))
		}
		checkLookahead(l)
	}
	p.links = append(p.links[:0], links...)
	p.custom = true
}

// checkLookahead rejects a pair no shard could free-run under: with
// zero lookahead a pair clock never gets ahead of its neighbor's.
func checkLookahead(l ShardLink) {
	if l.Lookahead <= 0 {
		panic(fmt.Sprintf("sim: zero or negative lookahead %d on shard link %d->%d: every shard pair needs positive lookahead",
			l.Lookahead, l.From, l.To))
	}
}

// finalize freezes the pair graph and builds the per-pair rings and
// clock table. Runs once, at the first Run* call.
func (p *Parallel) finalize() {
	if p.finalized {
		return
	}
	n := len(p.shards)
	links := p.links
	if !p.custom {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i != j {
					l := ShardLink{From: i, To: j, Lookahead: p.lookahead}
					checkLookahead(l)
					links = append(links, l)
				}
			}
		}
	}
	p.finalized = true
	if p.ringCap <= 0 {
		p.ringCap = 1024
	}
	for _, sh := range p.shards {
		sh.out = make([]outPair, n)
		for j := range sh.out {
			sh.out[j].la = -1
		}
		sh.gring = newEvRing(p.ringCap)
		sh.minOutLa = Duration(maxTime)
	}
	for _, l := range links {
		from, to := p.shards[l.From], p.shards[l.To]
		if cur := from.out[l.To].la; cur >= 0 {
			if l.Lookahead < cur {
				from.out[l.To].la = l.Lookahead
				for k := range to.in {
					if to.in[k].srcIdx == l.From {
						to.in[k].la = l.Lookahead
					}
				}
			}
			continue
		}
		r := newEvRing(p.ringCap)
		from.out[l.To] = outPair{ring: r, la: l.Lookahead}
		to.in = append(to.in, inPair{src: from, srcIdx: l.From, la: l.Lookahead, ring: r})
	}
	for _, sh := range p.shards {
		sort.Slice(sh.in, func(a, b int) bool { return sh.in[a].srcIdx < sh.in[b].srcIdx })
		for j := range sh.out {
			if la := sh.out[j].la; la >= 0 && la < sh.minOutLa {
				sh.minOutLa = la
			}
		}
	}
	p.ensurePairCounters()
}

// Place assigns a domain to a shard. All placements must happen before
// the first Run* call; unplaced domains default to (domain-1) modulo
// the shard count. GlobalDomain cannot be placed.
func (p *Parallel) Place(domain, shard int) {
	if domain <= 0 {
		panic(fmt.Sprintf("sim: cannot place domain %d", domain))
	}
	if shard < 0 || shard >= len(p.shards) {
		panic(fmt.Sprintf("sim: shard %d out of range [0,%d)", shard, len(p.shards)))
	}
	p.ensureDomain(domain)
	p.domains[domain].shard = int32(shard)
}

func (p *Parallel) ensureDomain(domain int) {
	if p.roundActive {
		panic("sim: domain table grown while shards are executing")
	}
	for len(p.domains) <= domain {
		d := len(p.domains)
		p.domains = append(p.domains, pardom{shard: int32((d - 1) % len(p.shards))})
	}
}

// Now returns the driver-context virtual time. It is only meaningful
// between Run* calls and inside GlobalDomain events; domain code must
// use its own Proc's Now.
func (p *Parallel) Now() Time { return p.now }

// Rand returns the engine's main random stream (driver/global-context
// only).
func (p *Parallel) Rand() *rand.Rand { return p.rng }

// NewRand returns a fresh stream seeded from the engine. Call it in a
// deterministic order (normally at build time) and use each stream from
// a single domain.
func (p *Parallel) NewRand() *rand.Rand {
	return rand.New(rand.NewSource(p.seedSrc.Int63()))
}

// EnableBarrierMetrics turns on the shard synchronization profiler.
// nowNs is the wall-clock source (normally telemetry.NowNs — the
// engine never reads a real clock directly, keeping the simulation
// deterministic by construction). When reg is non-nil the per-shard
// cumulative totals are also published as the counters
// speedlight_sim_round_work_ns and speedlight_sim_barrier_wait_ns,
// labeled by shard: work is the wall time a shard spent executing
// events, wait is the wall time it spent stalled on a neighbor's pair
// clock or idling out an epoch — the direct diagnostic for
// shard-scaling plateaus. Per-pair stall attribution is additionally
// published as speedlight_sim_blocked_on_shard_ns labeled
// waiter/holdup, and available through BlockedProfile. Call before the
// first Run*; not safe while shards are executing.
func (p *Parallel) EnableBarrierMetrics(reg *telemetry.Registry, nowNs func() int64) {
	if nowNs == nil {
		return
	}
	p.wall = nowNs
	if reg == nil {
		return
	}
	workV := reg.CounterVec("speedlight_sim_round_work_ns",
		"Wall nanoseconds each shard spent executing events inside epochs and solo runs.",
		"shard")
	waitV := reg.CounterVec("speedlight_sim_barrier_wait_ns",
		"Wall nanoseconds each shard spent stalled on pair clocks or idling out epochs.",
		"shard")
	for i, sh := range p.shards {
		lbl := strconv.Itoa(i)
		sh.workC = workV.With(lbl)
		sh.waitC = waitV.With(lbl)
	}
	p.blockedVec = reg.CounterVec("speedlight_sim_blocked_on_shard_ns",
		"Wall nanoseconds a waiter shard spent stalled on a specific holdup shard's published pair clock.",
		"waiter", "holdup")
	p.ensurePairCounters()
}

// ensurePairCounters caches one blocked-on counter per declared inbound
// pair. Needs both the metric vec and the finalized pair graph, in
// either order.
func (p *Parallel) ensurePairCounters() {
	if p.blockedVec == nil || !p.finalized {
		return
	}
	for _, sh := range p.shards {
		w := strconv.Itoa(sh.idx)
		for k := range sh.in {
			ip := &sh.in[k]
			if ip.blockedC == nil {
				ip.blockedC = p.blockedVec.With(w, strconv.Itoa(ip.srcIdx))
			}
		}
	}
}

// BarrierShardStats is one shard's cumulative synchronization
// accounting.
type BarrierShardStats struct {
	Shard  int
	Rounds uint64 // epochs and solo runs the shard executed events in
	WorkNs int64  // wall time spent executing events
	WaitNs int64  // wall time spent stalled on pair clocks or idling
}

// BarrierProfile returns each shard's cumulative work/wait split.
// Driver context only; returns nil unless EnableBarrierMetrics was
// called.
func (p *Parallel) BarrierProfile() []BarrierShardStats {
	if p.wall == nil {
		return nil
	}
	stats := make([]BarrierShardStats, len(p.shards))
	for i, sh := range p.shards {
		stats[i] = BarrierShardStats{
			Shard: i, Rounds: sh.statRounds,
			WorkNs: sh.statWorkNs, WaitNs: sh.statWaitNs,
		}
	}
	return stats
}

// BlockedPairStats is one directed pair's cumulative stall
// attribution: wall time the waiter shard spent unable to execute
// because the holdup shard's published clock bounded it.
type BlockedPairStats struct {
	Waiter int
	Holdup int
	WaitNs int64
}

// BlockedProfile returns the per-pair stall attribution, most blocking
// pair first. Driver context only; returns nil unless
// EnableBarrierMetrics was called.
func (p *Parallel) BlockedProfile() []BlockedPairStats {
	if p.wall == nil {
		return nil
	}
	var out []BlockedPairStats
	for _, sh := range p.shards {
		for k := range sh.in {
			ip := &sh.in[k]
			if ip.statBlockedNs > 0 {
				out = append(out, BlockedPairStats{Waiter: sh.idx, Holdup: ip.srcIdx, WaitNs: ip.statBlockedNs})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].WaitNs != out[j].WaitNs {
			return out[i].WaitNs > out[j].WaitNs
		}
		if out[i].Waiter != out[j].Waiter {
			return out[i].Waiter < out[j].Waiter
		}
		return out[i].Holdup < out[j].Holdup
	})
	return out
}

// Fired returns the total number of events executed so far.
func (p *Parallel) Fired() uint64 {
	n := p.fired
	for _, sh := range p.shards {
		n += sh.fired
	}
	return n
}

// Pending returns the number of scheduled, uncancelled events. Driver
// context only — between Run* calls every ring is drained, so the
// queues hold the whole schedule.
func (p *Parallel) Pending() int {
	n := 0
	count := func(sh *pshard) {
		sh.q.forEach(func(ev *Event) {
			if !ev.canceled {
				n++
			}
		})
	}
	count(p.global)
	for _, sh := range p.shards {
		count(sh)
	}
	return n
}

// Proc returns the scheduling handle of one domain.
func (p *Parallel) Proc(domain int) Proc {
	checkDomain(domain)
	p.ensureDomain(domain)
	return parProc{p: p, dom: domain}
}

// Schedule runs fn at virtual time at in the global domain.
func (p *Parallel) Schedule(at Time, fn func()) Handle {
	return parProc{p: p, dom: GlobalDomain}.Schedule(at, fn)
}

// After runs fn d after the current time in the global domain.
func (p *Parallel) After(d Duration, fn func()) Handle {
	return parProc{p: p, dom: GlobalDomain}.After(d, fn)
}

// Cancel suppresses a scheduled event. As on the serial engine, the
// event is reclaimed lazily when its time is reached.
func (p *Parallel) Cancel(h Handle) {
	parProc{p: p, dom: GlobalDomain}.Cancel(h)
}

// NewTicker schedules fn every period in the global domain.
func (p *Parallel) NewTicker(period Duration, fn func()) *Ticker {
	return parProc{p: p, dom: GlobalDomain}.NewTicker(period, fn)
}

// Run executes events until none remain.
func (p *Parallel) Run() {
	p.run(maxTime)
	for _, sh := range p.shards {
		if sh.now > p.now {
			p.now = sh.now
		}
	}
}

// RunUntil executes events with time <= t, then sets the clock to t.
func (p *Parallel) RunUntil(t Time) {
	if t < maxTime {
		p.run(t + 1)
	} else {
		p.run(maxTime)
	}
	if p.now < t {
		p.now = t
	}
}

// RunFor advances the simulation by d from the current time.
func (p *Parallel) RunFor(d Duration) { p.RunUntil(p.now.Add(d)) }

// run is the coordinator loop: alternate serial global events and
// shard execution (free-running epochs, or an inline solo run when a
// single shard has work) until no event below limit remains.
func (p *Parallel) run(limit Time) {
	p.finalize()
	defer p.stopWorkers()
	for {
		p.drainRings()
		g := p.global.q.nextAt()
		fence := min(g, limit)
		s, busy := maxTime, 0 // earliest shard event; shards with work below the fence
		var bsh *pshard
		for _, sh := range p.shards {
			t := sh.q.nextAt()
			s = min(s, t)
			if t < fence {
				busy++
				bsh = sh
			}
		}
		if min(g, s) >= limit {
			return
		}
		if g <= s {
			// Global events serialize: workers are parked, so the
			// event may touch any domain's state.
			ev := p.global.q.pop()
			if ev.canceled {
				p.global.pool.put(ev)
				continue
			}
			p.now = ev.at
			p.fired++
			ev.fire()
			p.global.pool.put(ev)
			continue
		}
		if busy == 1 {
			p.soloRun(bsh, fence)
		} else {
			p.runEpoch(fence, s)
		}
	}
}

// soloRun executes the single busy shard inline on the coordinator, up
// to the point where another shard could legally receive work (its
// minimum outbound lookahead) or the fence, whichever is first. No
// worker dispatch, no rings: with every other shard quiet, cross-shard
// sends push straight into the target queue.
func (p *Parallel) soloRun(sh *pshard, fence Time) {
	head := sh.q.nextAt()
	lim := head.Add(sh.minOutLa)
	if lim < head {
		lim = maxTime // overflow, or no outbound pairs at all
	}
	if fence < lim {
		lim = fence
	}
	p.roundActive, p.solo = true, true
	if p.wall == nil {
		p.processBatch(sh, lim, math.MaxInt)
	} else {
		t := p.wall()
		p.processBatch(sh, lim, math.MaxInt)
		sh.statRounds++
		sh.addProfile(p.wall()-t, 0)
	}
	p.roundActive, p.solo = false, false
}

// runEpoch free-runs every shard below fence under the per-pair
// clocks. s is the global minimum pending shard event time — the
// trivially sound initial clock publication. The coordinator's only
// mid-epoch duty is draining the shard-to-global rings; everything
// else is worker-to-worker through the clock table and the pair rings.
func (p *Parallel) runEpoch(fence, s Time) {
	p.epochDone.Store(false)
	p.quiet.Store(0)
	p.done.Store(0)
	for _, sh := range p.shards {
		sh.pub.Store(int64(s))
	}
	p.roundActive = true
	p.startWorkers()
	n := int32(len(p.shards))
	for _, sh := range p.shards {
		sh.job <- fence
	}
	for {
		p.drainGlobalRings()
		if p.quiet.Load() >= n || p.panics.Load() > 0 {
			break
		}
		runtime.Gosched()
	}
	p.epochDone.Store(true)
	for p.done.Load() < n {
		p.drainGlobalRings()
		runtime.Gosched()
	}
	p.roundActive = false
	if p.wall != nil {
		p.foldEpoch()
	}
	p.drainRings()
	p.raisePanics()
}

// raisePanics re-raises worker panics on the coordinator so they reach
// the Run* caller like a serial panic would. Lowest shard wins for a
// deterministic message.
func (p *Parallel) raisePanics() {
	if p.panics.Load() == 0 {
		return
	}
	p.panics.Store(0)
	var first any
	for _, sh := range p.shards {
		if r := sh.panicked; r != nil {
			sh.panicked = nil
			if first == nil {
				first = r
			}
		}
	}
	if first != nil {
		panic(first)
	}
}

// foldEpoch folds the workers' per-epoch accounting into the
// cumulative per-shard and per-pair totals. Coordinator context, after
// the barrier.
func (p *Parallel) foldEpoch() {
	for _, sh := range p.shards {
		if sh.epochActive {
			sh.statRounds++
		}
		sh.epochActive = false
		sh.addProfile(sh.epochWorkNs, sh.epochWaitNs)
		sh.epochWorkNs, sh.epochWaitNs = 0, 0
		for k := range sh.in {
			ip := &sh.in[k]
			if d := ip.epochBlockedNs; d > 0 {
				ip.epochBlockedNs = 0
				ip.statBlockedNs += d
				if ip.blockedC != nil {
					ip.blockedC.Add(uint64(d))
				}
			}
		}
	}
}

// addProfile adds one epoch's or solo run's wall-clock split to the
// shard's cumulative totals and published counters. Coordinator
// context.
func (sh *pshard) addProfile(work, wait int64) {
	if work < 0 {
		work = 0 // clock skew between reader contexts
	}
	if wait < 0 {
		wait = 0
	}
	sh.statWorkNs += work
	sh.statWaitNs += wait
	if sh.workC != nil {
		sh.workC.Add(uint64(work))
		sh.waitC.Add(uint64(wait))
	}
}

// epochBatch bounds how many events a worker executes between clock
// republications, so neighbors waiting on this shard's pair clock see
// it advance at a bounded staleness.
const epochBatch = 128

// epochLoop is one worker's free-run: load each inbound neighbor's
// published clock (acquire), drain that pair's ring, execute a bounded
// batch below min(inbound bounds, fence), republish own clock
// (release), repeat. The load-before-drain order is what keeps the
// bound sound: any push the drain missed was made after the loaded
// clock was published, so it arrives at or above loaded clock plus the
// pair lookahead. A worker whose clock reaches the fence counts itself
// quiescent but keeps draining its inbound rings — a parked consumer
// would wedge a producer spinning on a full ring — until the
// coordinator declares the epoch done.
//
//speedlight:shard
func (p *Parallel) epochLoop(sh *pshard, fence Time) {
	counted := false
	timing := p.wall != nil
	var lastWall int64
	if timing {
		lastWall = p.wall()
	}
	for !p.epochDone.Load() {
		bound := maxTime
		holdup := -1
		for k := range sh.in {
			ip := &sh.in[k]
			b := Time(ip.src.pub.Load())
			p.drainRing(sh, ip.ring)
			hb := b.Add(ip.la)
			if hb < b {
				hb = maxTime // overflow
			}
			if hb < bound {
				bound = hb
				holdup = k
			}
		}
		head := sh.q.nextAt()
		pub := head
		if bound < pub {
			pub = bound
		}
		if int64(pub) > sh.pub.Load() {
			sh.pub.Store(int64(pub))
		}
		if !counted && pub >= fence {
			counted = true
			p.quiet.Add(1)
		}
		lim := bound
		if fence < lim {
			lim = fence
		}
		if head < lim {
			if timing {
				t := p.wall()
				sh.epochWaitNs += t - lastWall
				lastWall = t
			}
			p.processBatch(sh, lim, epochBatch)
			sh.epochActive = true
			if timing {
				t := p.wall()
				sh.epochWorkNs += t - lastWall
				lastWall = t
			}
			continue
		}
		if timing {
			t := p.wall()
			d := t - lastWall
			lastWall = t
			sh.epochWaitNs += d
			if d > 0 && head < fence && holdup >= 0 {
				sh.in[holdup].epochBlockedNs += d
			}
		}
		runtime.Gosched()
	}
	if timing {
		sh.epochWaitNs += p.wall() - lastWall
	}
}

// processBatch drains up to max of one shard's events below lim in
// (time, src, seq) order. Runs on the shard's worker inside an epoch,
// or inline on the coordinator (uncapped) during a solo run. Fired and
// cancelled events return to this shard's pool — the popping context
// owns the recycle.
//
//speedlight:hotpath
//speedlight:shard
func (p *Parallel) processBatch(sh *pshard, lim Time, max int) {
	for n := 0; n < max && sh.q.nextAt() < lim; n++ {
		ev := sh.q.pop()
		if !ev.canceled {
			sh.now = ev.at
			sh.fired++
			ev.fire()
		}
		sh.pool.put(ev)
	}
}

// drainRing merges one inbound ring's arrivals into the shard's queue.
// Must be called by the ring's current consumer: the owning worker
// during an epoch, the coordinator after the barrier.
//
//speedlight:shard
func (p *Parallel) drainRing(sh *pshard, r *evRing) {
	for {
		ev := r.tryPop()
		if ev == nil {
			return
		}
		sh.q.push(ev)
	}
}

// drainGlobalRings moves shard-to-global sends into the global queue.
// Coordinator context (the coordinator is these rings' only consumer,
// mid-epoch and after).
//
//speedlight:global-only
func (p *Parallel) drainGlobalRings() {
	for _, sh := range p.shards {
		for {
			ev := sh.gring.tryPop()
			if ev == nil {
				break
			}
			p.global.q.push(ev)
		}
	}
}

// drainRings sweeps every ring and overflow stash into the owning
// queues. Coordinator context, workers parked.
//
//speedlight:global-only
func (p *Parallel) drainRings() {
	for _, sh := range p.shards {
		for k := range sh.in {
			p.drainRing(sh, sh.in[k].ring)
		}
		if len(sh.overflow) > 0 {
			for _, st := range sh.overflow {
				if st.tgt < 0 {
					p.global.q.push(st.ev)
				} else {
					p.shards[st.tgt].q.push(st.ev)
				}
			}
			sh.overflow = sh.overflow[:0]
		}
	}
	p.drainGlobalRings()
}

// pushRing hands one cross-shard (or shard-to-global) event to its
// pair ring. The fast path is a single tryPush; the slow path sheds
// backpressure without deadlock.
//
//speedlight:hotpath
//speedlight:pool-transfer ev
func (p *Parallel) pushRing(sh *pshard, r *evRing, ev *Event, tgt int) {
	if r.tryPush(ev) {
		return
	}
	p.pushRingSlow(sh, r, ev, tgt)
}

// pushRingSlow spins on a full ring. The producer drains its own
// inbound rings while it waits — every ring's consumer is always
// either free-running or in this loop, so every full ring is
// eventually drained and the wait graph cannot deadlock. If the epoch
// is torn down mid-spin (another worker panicked), the event is parked
// in the overflow stash for the coordinator to route after the
// barrier.
func (p *Parallel) pushRingSlow(sh *pshard, r *evRing, ev *Event, tgt int) {
	for {
		for k := range sh.in {
			p.drainRing(sh, sh.in[k].ring)
		}
		if p.epochDone.Load() {
			sh.overflow = append(sh.overflow, stashedEv{tgt: tgt, ev: ev})
			return
		}
		if r.tryPush(ev) {
			return
		}
		runtime.Gosched()
	}
}

func (p *Parallel) startWorkers() {
	if p.workersUp {
		return
	}
	p.workersUp = true
	for _, sh := range p.shards {
		// The worker receives the channel as an argument: a retired
		// worker from a previous Run* call may not have executed its
		// first instruction yet, so it must never load the job field
		// the next generation's startWorkers is about to overwrite.
		job := make(chan Time, 1)
		sh.job = job
		go func(sh *pshard, job chan Time) {
			for h := range job {
				func() {
					defer func() {
						if r := recover(); r != nil {
							sh.panicked = r
							p.panics.Add(1)
						}
						p.done.Add(1)
					}()
					p.epochLoop(sh, h)
				}()
			}
		}(sh, job)
	}
}

// stopWorkers retires the workers at the end of each Run* call, so an
// idle engine holds no goroutines.
func (p *Parallel) stopWorkers() {
	if !p.workersUp {
		return
	}
	p.workersUp = false
	for _, sh := range p.shards {
		close(sh.job)
	}
}

// parProc is one domain's scheduling handle on the Parallel engine.
type parProc struct {
	p   *Parallel
	dom int
}

func (pr parProc) Domain() int { return pr.dom }

// Now returns the domain's shard-local clock while shards execute (an
// epoch or a solo run) and the global clock otherwise (driver context,
// or a GlobalDomain event executing with workers parked).
//
//speedlight:shard
func (pr parProc) Now() Time {
	p := pr.p
	if p.roundActive {
		if sh := p.shardOf(pr.dom); sh != nil {
			return sh.now
		}
	}
	return p.now
}

// shardOf resolves a domain to its home shard (nil for GlobalDomain):
// the read-only placement lookup the handoff protocol starts from.
//
//speedlight:shard-handoff
func (p *Parallel) shardOf(dom int) *pshard {
	if s := p.domains[dom].shard; s >= 0 {
		return p.shards[s]
	}
	return nil
}

func (pr parProc) Schedule(at Time, fn func()) Handle {
	return pr.sendAt(pr.dom, at, fn, nil, nil, nil, 0)
}

func (pr parProc) After(d Duration, fn func()) Handle {
	if d < 0 {
		d = 0
	}
	return pr.sendAt(pr.dom, pr.Now().Add(d), fn, nil, nil, nil, 0)
}

func (pr parProc) Send(owner int, d Duration, fn func()) Handle {
	if d < 0 {
		d = 0
	}
	return pr.sendAt(owner, pr.Now().Add(d), fn, nil, nil, nil, 0)
}

func (pr parProc) SendAt(owner int, at Time, fn func()) Handle {
	return pr.sendAt(owner, at, fn, nil, nil, nil, 0)
}

func (pr parProc) ScheduleCall(at Time, fn CallFn, a, b any, i int64) Handle {
	return pr.sendAt(pr.dom, at, nil, fn, a, b, i)
}

func (pr parProc) AfterCall(d Duration, fn CallFn, a, b any, i int64) Handle {
	if d < 0 {
		d = 0
	}
	return pr.sendAt(pr.dom, pr.Now().Add(d), nil, fn, a, b, i)
}

func (pr parProc) SendCall(owner int, d Duration, fn CallFn, a, b any, i int64) Handle {
	if d < 0 {
		d = 0
	}
	return pr.sendAt(owner, pr.Now().Add(d), nil, fn, a, b, i)
}

// sendAt schedules a callback in domain owner at time at, keyed by this
// domain's schedule counter. The event comes from the scheduling
// context's free list: the worker's own shard pool during an epoch
// (workers never reach another shard's pool), or — from driver/global
// context, with every worker parked — the scheduling domain's home
// pool. Cross-shard events travel the pair's ring (or go straight to
// the target queue when no other shard is executing).
//
//speedlight:hotpath
//speedlight:shard
//speedlight:shard-handoff
func (pr parProc) sendAt(owner int, at Time, fn func(), cfn CallFn, a, b any, i int64) Handle {
	p := pr.p
	if owner < 0 || owner >= len(p.domains) {
		panic(fmt.Sprintf("sim: send to unknown domain %d", owner))
	}
	ds := &p.domains[pr.dom]
	if ds.seq >= maxSeq {
		seqOverflow(pr.dom)
	}
	src := ds.shard
	home := p.global
	if src >= 0 {
		home = p.shards[src]
	}
	ev := home.pool.get()
	ev.at = at
	ev.src = int32(pr.dom)
	ev.seq = ds.seq
	ev.owner = int32(owner)
	ev.fn = fn
	ev.cfn = cfn
	ev.a = a
	ev.b = b
	ev.i = i
	ds.seq++
	h := Handle{ev: ev, gen: ev.gen}
	tgt := p.domains[owner].shard
	if !p.roundActive {
		// Coordinator or driver context: workers are parked, push
		// straight into the owning queue.
		if at < p.now {
			panic(fmt.Sprintf("sim: schedule at %d before now %d", at, p.now))
		}
		dst := p.global
		if tgt >= 0 {
			dst = p.shards[tgt]
		}
		dst.q.push(ev)
		return h
	}
	if src < 0 {
		panic("sim: GlobalDomain proc used from a shard event")
	}
	sh := p.shards[src]
	if at < sh.now {
		panic(fmt.Sprintf("sim: schedule at %d before now %d", at, sh.now))
	}
	switch {
	case tgt == src:
		sh.q.push(ev)
	case tgt < 0:
		// To the global domain: executes at the fence, at the correct
		// position of the global order.
		if p.solo {
			p.global.q.push(ev)
		} else {
			p.pushRing(sh, sh.gring, ev, -1)
		}
	default:
		op := &sh.out[tgt]
		if op.la < 0 {
			panic(fmt.Sprintf("sim: cross-shard send %d->%d outside the declared shard-link set", src, tgt))
		}
		if at < sh.now.Add(op.la) {
			panic(fmt.Sprintf(
				"sim: causality violation: cross-shard send %d->%d at %d below the pair clock %d (pair lookahead %d exceeds the actual cross-shard latency)",
				src, tgt, at, sh.now.Add(op.la), op.la))
		}
		if p.solo {
			p.shards[tgt].q.push(ev)
		} else {
			p.pushRing(sh, op.ring, ev, int(tgt))
		}
	}
	return h
}

// Cancel suppresses a scheduled event of this domain. The event leaves
// Pending at once and is reclaimed lazily, unfired, when its time is
// reached — the serial engine's rule too. Cancelling a
// fired-but-not-yet-recycled event is a no-op; cancelling through a
// stale handle (event already recycled) panics. Cancelling another
// domain's event is a context violation (the flag write would race
// with that domain's shard).
func (pr parProc) Cancel(h Handle) {
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

func (pr parProc) NewTicker(period Duration, fn func()) *Ticker {
	return newTicker(pr, period, fn)
}
