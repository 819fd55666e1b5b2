package sim

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"testing"
)

// simRecord is one observation a scenario domain makes of itself. The
// merge key (at, dom, idx) mirrors the engine's (time, src, seq)
// determinism key, so two runs match iff they executed the same events
// at the same times in the same per-domain order.
type simRecord struct {
	at  Time
	dom int
	idx int
	val int64
}

// scenarioNode is one domain of the equivalence workload: a bit of
// private state driven only by its own events (plus serialized global
// events), exactly the discipline emunet switches follow.
type scenarioNode struct {
	proc Proc
	rng  *rand.Rand
	log  []simRecord
	seen int64
}

func (n *scenarioNode) record(val int64) {
	n.log = append(n.log, simRecord{at: n.proc.Now(), dom: n.proc.Domain(), idx: len(n.log), val: val})
}

// runScenario drives a mixed workload — intra-domain chains, random
// cross-domain sends with latency >= minLatency, domain->global
// reports, and a global ticker that reads every domain — and returns
// the deterministic merged log.
func runScenario(eng Sim, domains int, minLatency Duration) []simRecord {
	nodes := make([]*scenarioNode, domains+1)
	for d := 1; d <= domains; d++ {
		nodes[d] = &scenarioNode{proc: eng.Proc(d), rng: eng.NewRand()}
	}
	global := &scenarioNode{proc: eng.Proc(GlobalDomain), rng: eng.NewRand()}
	nodes[GlobalDomain] = global

	var hop func(n *scenarioNode, ttl int)
	hop = func(n *scenarioNode, ttl int) {
		n.seen++
		n.record(n.seen)
		if ttl <= 0 {
			return
		}
		tgt := 1 + n.rng.Intn(domains)
		delay := minLatency + Duration(n.rng.Intn(500))
		if tgt == n.proc.Domain() {
			n.proc.After(Duration(1+n.rng.Intn(200)), func() { hop(n, ttl-1) })
			return
		}
		m := nodes[tgt]
		n.proc.Send(tgt, delay, func() { hop(m, ttl-1) })
		if n.seen%5 == 0 {
			v := n.seen
			n.proc.Send(GlobalDomain, delay, func() { global.record(v) })
		}
	}
	for d := 1; d <= domains; d++ {
		n := nodes[d]
		eng.Proc(GlobalDomain).SendAt(d, Time(d), func() { hop(n, 60) })
	}
	tk := global.proc.NewTicker(700, func() {
		var sum int64
		for d := 1; d <= domains; d++ {
			sum += nodes[d].seen
		}
		global.record(sum)
	})
	eng.RunUntil(40_000)
	tk.Stop()
	eng.Run()

	var out []simRecord
	for _, n := range nodes {
		out = append(out, n.log...)
	}
	sort.Slice(out, func(a, b int) bool {
		x, y := out[a], out[b]
		if x.at != y.at {
			return x.at < y.at
		}
		if x.dom != y.dom {
			return x.dom < y.dom
		}
		return x.idx < y.idx
	})
	return out
}

func formatRecords(recs []simRecord) string {
	var sb strings.Builder
	for _, r := range recs {
		fmt.Fprintf(&sb, "%d/%d/%d=%d\n", r.at, r.dom, r.idx, r.val)
	}
	return sb.String()
}

// TestParallelMatchesSerial: the same seed must produce an identical
// event log on the serial engine and on the parallel engine at every
// shard count and GOMAXPROCS — the engine-level version of the
// conformance contract.
func TestParallelMatchesSerial(t *testing.T) {
	const domains = 9
	const seed = 77
	const lookahead = 100 * Nanosecond
	ref := formatRecords(runScenario(NewEngine(seed), domains, Duration(lookahead)))
	if len(ref) == 0 {
		t.Fatal("scenario produced no records")
	}
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		for _, shards := range []int{1, 2, 3, 4, 8} {
			p := NewParallel(seed, shards, Duration(lookahead))
			got := formatRecords(runScenario(p, domains, Duration(lookahead)))
			if got != ref {
				t.Errorf("shards=%d GOMAXPROCS=%d: log diverges from serial", shards, procs)
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}

// TestParallelFiredNowParity: aggregate engine accounting must match
// the serial reference too.
func TestParallelFiredNowParity(t *testing.T) {
	const lookahead = 100
	e := NewEngine(3)
	runScenario(e, 5, lookahead)
	p := NewParallel(3, 4, lookahead)
	runScenario(p, 5, lookahead)
	if e.Fired() != p.Fired() {
		t.Errorf("Fired: serial %d, parallel %d", e.Fired(), p.Fired())
	}
	if e.Now() != p.Now() {
		t.Errorf("Now: serial %d, parallel %d", e.Now(), p.Now())
	}
	if p.Pending() != 0 || e.Pending() != 0 {
		t.Errorf("Pending: serial %d, parallel %d, want 0", e.Pending(), p.Pending())
	}
}

// TestParallelExplicitPlacement: Place must pin domains to shards and
// still produce the reference log.
func TestParallelExplicitPlacement(t *testing.T) {
	const domains = 6
	const lookahead = 100
	ref := formatRecords(runScenario(NewEngine(11), domains, lookahead))
	p := NewParallel(11, 3, lookahead)
	for d := 1; d <= domains; d++ {
		p.Place(d, (d*d)%3) // scrambled, non-default placement
	}
	if got := formatRecords(runScenario(p, domains, lookahead)); got != ref {
		t.Error("explicit placement diverges from serial")
	}
}

// TestParallelZeroLookaheadRejected: a shard pair needs positive
// lookahead to free-run, so the default complete graph at lookahead 0
// is rejected when it is frozen at the first Run*, with a panic naming
// the pair. A 1-shard engine has no pairs: it takes any value and
// still matches the serial order.
func TestParallelZeroLookaheadRejected(t *testing.T) {
	ref := formatRecords(runScenario(NewEngine(5), 4, 1))
	if got := formatRecords(runScenario(NewParallel(5, 1, 0), 4, 1)); got != ref {
		t.Error("1-shard zero-lookahead run diverges from serial")
	}

	p := NewParallel(5, 2, 0)
	p.Proc(1).Schedule(1, func() {})
	defer func() {
		msg := fmt.Sprint(recover())
		for _, frag := range []string{"lookahead 0", "shard link 0->1"} {
			if !strings.Contains(msg, frag) {
				t.Fatalf("first Run of a 2-shard lookahead-0 engine: panic %q does not mention %q", msg, frag)
			}
		}
	}()
	p.Run()
}

// TestParallelCausalityPanic: a cross-shard send below the pair clock
// must panic — it means the configured lookahead overstates the real
// minimum cross-shard latency.
func TestParallelCausalityPanic(t *testing.T) {
	p := NewParallel(1, 2, 1000)
	p.Place(1, 0)
	p.Place(2, 1)
	pr1, pr2 := p.Proc(1), p.Proc(2)
	// Both shards have work below the fence, so the epoch spans both;
	// domain 1 then violates the 1000-tick lookahead promise.
	pr2.Schedule(40, func() {})
	pr1.Schedule(50, func() {
		pr1.Send(2, 10, func() {})
	})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("cross-shard send below the pair clock did not panic")
		}
		if !strings.Contains(fmt.Sprint(r), "causality violation") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	p.Run()
}

// TestParallelGlobalProcInRoundPanics: using the GlobalDomain proc from
// a shard event is a context violation.
func TestParallelGlobalProcInRoundPanics(t *testing.T) {
	p := NewParallel(1, 2, 10)
	g := p.Proc(GlobalDomain)
	p.Proc(1).Schedule(5, func() {
		g.Schedule(100, func() {})
	})
	defer func() {
		if recover() == nil {
			t.Fatal("GlobalDomain proc inside a round did not panic")
		}
	}()
	p.Run()
}

// TestParallelPlaceValidation exercises the placement guards.
func TestParallelPlaceValidation(t *testing.T) {
	p := NewParallel(1, 2, 10)
	for _, tc := range []struct {
		name          string
		domain, shard int
	}{
		{"global domain", 0, 0},
		{"negative domain", -1, 0},
		{"shard out of range", 1, 2},
		{"negative shard", 1, -1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("Place(%d, %d) did not panic", tc.domain, tc.shard)
				}
			}()
			p.Place(tc.domain, tc.shard)
		})
	}
}

// TestParallelRunUntilIdle: RunUntil on an empty parallel engine still
// advances the clock, and boundary events fire exactly like the serial
// engine's.
func TestParallelRunUntilIdle(t *testing.T) {
	p := NewParallel(1, 2, 10)
	p.RunUntil(500)
	if p.Now() != 500 {
		t.Errorf("Now = %d, want 500", p.Now())
	}
	var fired []Time
	p.Proc(1).Schedule(600, func() { fired = append(fired, 600) })
	p.Proc(2).Schedule(601, func() { fired = append(fired, 601) })
	p.RunUntil(600) // boundary event fires, later one does not
	if len(fired) != 1 || fired[0] != 600 {
		t.Errorf("fired = %v, want [600]", fired)
	}
	if p.Pending() != 1 {
		t.Errorf("Pending = %d, want 1", p.Pending())
	}
	p.RunFor(1)
	if len(fired) != 2 {
		t.Errorf("boundary event at 601 did not fire: %v", fired)
	}
}

// TestParallelCancelCrossRound: events cancelled from their own domain
// before their time never fire, even when scheduled cross-shard.
func TestParallelCancelCrossRound(t *testing.T) {
	p := NewParallel(1, 2, 50)
	fired := false
	pr1, pr2 := p.Proc(1), p.Proc(2)
	var ev Handle
	pr2.Schedule(10, func() {
		ev = pr2.After(500, func() { fired = true })
	})
	pr1.Schedule(100, func() {}) // keep both shards busy
	p.RunUntil(200)
	pr2.Cancel(ev) // driver context: workers parked
	p.Run()
	if fired {
		t.Error("cancelled cross-round event fired")
	}
	if p.Pending() != 0 {
		t.Errorf("Pending = %d after run, want 0", p.Pending())
	}
}

// TestParallelManyShardsFewDomains: more shards than domains must not
// deadlock or misorder (some shards simply stay idle).
func TestParallelManyShardsFewDomains(t *testing.T) {
	ref := formatRecords(runScenario(NewEngine(9), 2, 100))
	got := formatRecords(runScenario(NewParallel(9, 8, 100), 2, 100))
	if got != ref {
		t.Error("8 shards / 2 domains diverges from serial")
	}
}
