// Loopdetect demonstrates the paper's Section 10 discussion of
// snapshotting forwarding state, and the Section 2.2 warning that
// without a consistent snapshot "we can observe states that are
// impossible".
//
// Two leaves migrate a route from version 1 to version 2: leaf 0 flips
// first, leaf 1 follows 200µs later (the update propagating). The
// ground truth therefore passes through (v2, v1) — a real transient
// inconsistency window — but NEVER through (v1, v2).
//
// Each switch exposes its FIB version as a snapshot-able register (the
// paper's version-tagging technique). The program observes the
// migration many times with synchronized snapshots and with
// asynchronous polling, and counts how often each method reports the
// impossible (v1, v2) state. Snapshots, being microsecond-synchronous,
// never do; polling — whose readings are milliseconds apart — routinely
// fabricates it.
//
//	go run ./examples/loopdetect
package main

import (
	"fmt"
	"log"

	"speedlight/internal/core"
	"speedlight/internal/dataplane"
	"speedlight/internal/emunet"
	"speedlight/internal/invariant"
	"speedlight/internal/packet"
	"speedlight/internal/polling"
	"speedlight/internal/sim"
	"speedlight/internal/snapstore"
	"speedlight/internal/topology"
	"speedlight/internal/workload"
)

func main() {
	const trials = 60
	snapImpossible, pollImpossible := 0, 0
	snapTransient, pollTransient := 0, 0
	var invEvals, invViolations uint64

	for trial := 0; trial < trials; trial++ {
		si, st, pi, pt, evals, viols := runTrial(int64(trial + 1))
		snapImpossible += si
		snapTransient += st
		pollImpossible += pi
		pollTransient += pt
		invEvals += evals
		invViolations += viols
	}

	fmt.Printf("over %d route migrations, observing FIB versions at both leaves:\n\n", trials)
	fmt.Printf("  %-10s impossible (v1,v2) states: %2d   real transient (v2,v1) caught: %2d\n",
		"snapshots", snapImpossible, snapTransient)
	fmt.Printf("  %-10s impossible (v1,v2) states: %2d   real transient (v2,v1) caught: %2d\n",
		"polling", pollImpossible, pollTransient)
	fmt.Printf("\nstreaming fib-order invariant: %d consistent cuts checked, %d loop windows flagged\n",
		invEvals, invViolations)
	fmt.Println("\na consistent snapshot can show the real transient window but never an")
	fmt.Println("impossible ordering; asynchronous polling cannot tell the two apart.")
}

// runTrial performs one migration and one observation with each method,
// returning (snapshot impossible, snapshot transient, polling
// impossible, polling transient) counts plus the streaming invariant
// engine's evaluation and violation totals for the trial.
func runTrial(seed int64) (si, st, pi, pt int, evals, viols uint64) {
	ls, err := topology.NewLeafSpine(topology.LeafSpineConfig{
		Leaves: 2, Spines: 2, HostsPerLeaf: 3,
		HostLinkLatency:   sim.Microsecond,
		FabricLinkLatency: sim.Microsecond,
	})
	if err != nil {
		log.Fatal(err)
	}
	// Every sealed epoch streams through the history store and the
	// fib-order invariant: leaf 1 may never run a newer FIB than leaf 0.
	// A consistent cut can catch the real (v2, v1) transient but never
	// the impossible (v1, v2) ordering, so the invariant holds for the
	// whole campaign — continuously checked, not spot-sampled.
	store := snapstore.New(snapstore.Config{Retention: 128, CheckpointEvery: 16})
	eng := invariant.New(invariant.Config{})
	net, err := emunet.New(emunet.Config{
		Topo:  ls.Topology,
		Seed:  seed,
		MaxID: 256, WrapAround: true,
		// Each ingress unit snapshots its switch's FIB version gauge.
		Metrics: func(n *emunet.Network, id dataplane.UnitID) core.Metric {
			if id.Dir == dataplane.Ingress && id.Port == 0 {
				return n.Gauge(id)
			}
			return nil
		},
		Snapstore:  store,
		Invariants: eng,
	})
	if err != nil {
		log.Fatal(err)
	}
	leaf0 := dataplane.UnitID{Node: ls.Leaves[0], Port: 0, Dir: dataplane.Ingress}
	leaf1 := dataplane.UnitID{Node: ls.Leaves[1], Port: 0, Dir: dataplane.Ingress}
	eng.Register(invariant.Order("fib-migration-order", leaf0, leaf1))
	net.Gauge(leaf0).Set(1)
	net.Gauge(leaf1).Set(1)

	// Background traffic keeps the snapshot protocol advancing.
	bg := &workload.Uniform{Net: net, Hosts: ls.HostIDs(), Interval: 2 * sim.Microsecond}
	bg.Start()
	defer bg.Stop()
	net.RunFor(sim.Millisecond)

	// The migration: leaf 0 at t0, leaf 1 at t0+200µs. The observation
	// lands somewhere inside the event (per-seed phase).
	t0 := 500 * sim.Microsecond
	net.Engine().After(t0, func() { net.Gauge(leaf0).Set(2) })
	net.Engine().After(t0+200*sim.Microsecond, func() { net.Gauge(leaf1).Set(2) })

	// Synchronized snapshot aimed somewhere inside the migration; the
	// per-trial phase sweeps the whole event window.
	phase := sim.Duration(100+(seed*71)%500) * sim.Microsecond
	var snapID packet.SeqID
	net.Engine().After(phase, func() {
		snapID, _ = net.ScheduleSnapshot(net.Engine().Now().Add(300 * sim.Microsecond))
	})

	// Polling sweep of the same two registers, starting near the same
	// time; its two readings land ~ milliseconds apart mid-sequence.
	var pollA, pollB uint64
	gotPoll := false
	poller := polling.New(net, polling.Config{})
	net.Engine().After(phase, func() {
		// Sweep everything, as a real polling framework would; extract
		// the two version registers.
		poller.PollAll(net.Units(), func(s []polling.Sample) {
			for _, smp := range s {
				switch smp.Unit {
				case leaf0:
					pollA = smp.Value
				case leaf1:
					pollB = smp.Value
				}
			}
			gotPoll = true
		})
	})

	net.RunFor(60 * sim.Millisecond)

	for _, g := range net.Snapshots() {
		if g.ID != snapID {
			continue
		}
		a, okA := g.Value(leaf0)
		b, okB := g.Value(leaf1)
		if okA && okB {
			si, st = classify(a, b)
		}
	}
	if gotPoll {
		pi, pt = classify(pollA, pollB)
	}
	for _, s := range eng.Status() {
		evals += s.Evals
		viols += s.Violations
	}
	return si, st, pi, pt, evals, viols
}

// classify returns (impossible, transient) indicator counts for an
// observed (leaf0, leaf1) version pair.
func classify(a, b uint64) (impossible, transient int) {
	switch {
	case a == 1 && b == 2:
		return 1, 0 // leaf 1 can never be ahead of leaf 0
	case a == 2 && b == 1:
		return 0, 1 // the genuine transient window
	default:
		return 0, 0
	}
}
