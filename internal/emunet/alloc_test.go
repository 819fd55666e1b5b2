package emunet

import (
	"testing"

	"speedlight/internal/control"
	"speedlight/internal/journal"
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

// pipelineLoop is the 2x2x3 testbed's steady per-packet load: each step
// injects one packet from host 0 to host 3, every 1 024th runs the
// fabric for 1 ms, and every 8 192nd schedules a snapshot. set is the
// flight-recorder journal (nil: off). Its seed and shape are the
// allocation gate's and the trace budget's.
func pipelineLoop(t *testing.T, set *journal.Set) (*Network, func()) {
	t.Helper()
	ls, err := topology.NewLeafSpine(topology.LeafSpineConfig{
		Leaves: 2, Spines: 2, HostsPerLeaf: 3,
		HostLinkLatency: sim.Microsecond, FabricLinkLatency: sim.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	n, err := New(Config{Topo: ls.Topology, Seed: 1, Journal: set})
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	return n, func() {
		pkt := n.NewPacket()
		pkt.DstHost, pkt.SrcPort, pkt.Proto, pkt.Size = 3, uint16(i), 6, 1000
		n.InjectFromHost(0, pkt)
		if i%1024 == 1023 {
			n.RunFor(sim.Millisecond)
		}
		if i%8192 == 8191 {
			if _, err := n.ScheduleSnapshot(n.Engine().Now().Add(sim.Millisecond)); err != nil {
				t.Fatal(err)
			}
		}
		i++
	}
}

// TestPipelineAllocs gates emunet's per-packet pipeline — a packet's
// arrival at each switch, its queueing, serialization and transmission,
// each wire hop, the notifications its hops raise and its delivery —
// with the journal off and on and snapshots running: a packet
// allocates nothing, and a snapshot's own objects amortize to under
// one per packet.
//
//speedlight:allocgate emunet.Network.arrive emunet.Network.enqueue emunet.Network.scheduleTx emunet.Network.txCall
//speedlight:allocgate emunet.Network.transmit emunet.Network.deliverLocalCall emunet.Network.wireHop emunet.Network.drainNotifs
//speedlight:allocgate emunet.pktFIFO.push emunet.pktFIFO.peek emunet.pktFIFO.pop emunet.portQueue.head
//speedlight:allocgate emunet.portQueue.setDepth emunet.portQueue.serialization
func TestPipelineAllocs(t *testing.T) {
	for _, set := range []*journal.Set{nil, journal.NewSet(0)} {
		n, step := pipelineLoop(t, set)
		for i := 0; i < 8192; i++ {
			step() // warm the pools, the queues and the journal rings
		}
		if allocs := testing.AllocsPerRun(2*8192, step); allocs != 0 {
			t.Errorf("journal %v: a packet allocates %.1f/op, want 0", set != nil, allocs)
		}
		n.RunFor(10 * sim.Millisecond)
		if got := len(n.Snapshots()); got != 3 {
			t.Errorf("journal %v: %d snapshots completed, want 3", set != nil, got)
		}
		if err := n.LeakCheck(); err != nil {
			t.Error(err)
		}
	}
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
	if !es.CP.Complete(id) {
		t.Fatalf("a unit did not read through %d: the gate skipped the result path", id)
	}
	if err := n.LeakCheck(); err != nil {
		t.Fatal(err)
	}
}
