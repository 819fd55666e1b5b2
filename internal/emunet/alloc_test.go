package emunet

import (
	"testing"

	"speedlight/internal/control"
	"speedlight/internal/packet"
	"speedlight/internal/sim"
	"speedlight/internal/topology"
)

// quietNet is newNet with the observer's recovery ticker off, so a gate
// runs nothing but the path it measures.
func quietNet(t *testing.T, mod func(*Config)) *Network {
	return newNet(t, func(c *Config) {
		c.RetryAfter, c.ExcludeAfter = -1, -1
		if mod != nil {
			mod(c)
		}
	})
}

// TestResultHandoffAllocs gates a result's trip from a switch to the
// observer — its outbox slot, the closure-free send, the delivery in the
// observer's domain, the Fabric's lock and the observer's store — over
// several chunk hand-backs: a steady stream of non-finalizing results
// allocates nothing.
//
//speedlight:allocgate emunet.Network.toObserver emunet.Network.resultCall node.Fabric.Result
func TestResultHandoffAllocs(t *testing.T) {
	n := quietNet(t, func(c *Config) {
		ls, err := topology.NewLeafSpine(topology.LeafSpineConfig{
			Leaves: 2, Spines: 2, HostsPerLeaf: 100,
			HostLinkLatency: sim.Microsecond, FabricLinkLatency: sim.Microsecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		c.Topo = ls.Topology
	})
	units := n.Units()
	runs := 4 * len(resultChunk{})
	if len(units) <= runs+1 {
		t.Fatalf("%d units: too few for %d non-finalizing results", len(units), runs+1)
	}
	id, _, err := n.Begin(n.Engine().Now())
	if err != nil {
		t.Fatal(err)
	}
	es, next := n.sws[0], 0
	allocs := testing.AllocsPerRun(runs, func() {
		n.toObserver(es, control.Result{Unit: units[next], SnapshotID: id, Value: 7, Consistent: true})
		next++
		n.RunFor(observerLatency)
	})
	if allocs != 0 {
		t.Fatalf("a result's trip to the observer allocates %.1f/op, want 0", allocs)
	}
	if len(n.Snapshots()) != 0 {
		t.Fatal("snapshot finalized: the gate measured the wrong path")
	}
}

// TestInitiateAllocs gates an initiation on a warm pool: the control
// plane's initiation packets, a pooled copy of each queued to its
// port's egress and dropped there, and the notifications and results
// the initiation raises. Every copy comes home. A new snapshot ID also
// opens its sync window — one per epoch, not per packet, and not this
// gate's subject — so the windows are opened up front.
//
//speedlight:allocgate emunet.Network.initiate
func TestInitiateAllocs(t *testing.T) {
	const runs = 50
	n := quietNet(t, nil)
	es := n.sws[0]
	var id packet.SeqID
	step := func() {
		id++
		n.initiate(es, id)
		n.RunFor(5 * sim.Millisecond)
	}
	for i := 0; i < 4; i++ {
		step() // warm the pool, the queues and the outbox
	}
	for k := id + 1; k <= id+runs+1; k++ {
		n.syncs[k] = &syncWindow{}
	}
	if allocs := testing.AllocsPerRun(runs, step); allocs != 0 {
		t.Fatalf("initiate allocates %.1f/op with a warm pool, want 0", allocs)
	}
	for _, u := range es.DP.UnitIDs() {
		if got := es.CP.LastRead(u); got != id {
			t.Fatalf("unit %v read through %d, want %d: the gate skipped the result path", u, got, id)
		}
	}
	if err := n.LeakCheck(); err != nil {
		t.Fatal(err)
	}
}
