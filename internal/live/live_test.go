package live

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"speedlight/internal/dataplane"
	"speedlight/internal/packet"
	"speedlight/internal/sim"
	"speedlight/internal/topology"
)

func leafSpine(t *testing.T) *topology.LeafSpine {
	t.Helper()
	ls, err := topology.NewLeafSpine(topology.LeafSpineConfig{
		Leaves: 2, Spines: 2, HostsPerLeaf: 3,
		HostLinkLatency:   sim.Microsecond,
		FabricLinkLatency: sim.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ls
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("nil topology accepted")
	}
}

func TestDeliveryAcrossFabric(t *testing.T) {
	ls := leafSpine(t)
	var delivered atomic.Int64
	n, err := New(Config{
		Topo:      ls.Topology,
		OnDeliver: func(_ *packet.Packet, _ topology.HostID) { delivered.Add(1) },
	})
	if err != nil {
		t.Fatal(err)
	}
	n.Start()
	defer n.Stop()
	for i := 0; i < 100; i++ {
		if err := n.Inject(0, &packet.Packet{DstHost: 3, Size: 100, SrcPort: uint16(i), Proto: 6}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for delivered.Load() < 100 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := delivered.Load(); got != 100 {
		t.Errorf("delivered %d of 100", got)
	}
}

func TestSnapshotUnderConcurrentTraffic(t *testing.T) {
	ls := leafSpine(t)
	n, err := New(Config{Topo: ls.Topology})
	if err != nil {
		t.Fatal(err)
	}
	n.Start()
	defer n.Stop()

	// Concurrent traffic from every host while the snapshot runs.
	var stop atomic.Bool
	var wg sync.WaitGroup
	for h := topology.HostID(0); h < 6; h++ {
		h := h
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				dst := topology.HostID((int(h) + 1 + i%5) % 6)
				n.Inject(h, &packet.Packet{
					DstHost: uint32(dst),
					SrcPort: uint16(i),
					DstPort: 9000,
					Proto:   6,
					Size:    500,
				})
				if i%64 == 0 {
					time.Sleep(time.Microsecond)
				}
			}
		}()
	}

	id, done, err := n.TakeSnapshot(5 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case g := <-done:
		if g.ID != id {
			t.Errorf("completed id %d, want %d", g.ID, id)
		}
		if !g.Consistent {
			t.Error("snapshot inconsistent")
		}
		if len(g.Results) != 28 {
			t.Errorf("results = %d, want 28 units", len(g.Results))
		}
		var total uint64
		for _, r := range g.Results {
			total += r.Value
		}
		if total == 0 {
			t.Error("all-zero snapshot despite traffic")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("snapshot never completed")
	}
	stop.Store(true)
	wg.Wait()
}

func TestSnapshotSequenceMonotoneCounters(t *testing.T) {
	ls := leafSpine(t)
	n, err := New(Config{Topo: ls.Topology})
	if err != nil {
		t.Fatal(err)
	}
	n.Start()
	defer n.Stop()

	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			n.Inject(1, &packet.Packet{DstHost: 4, SrcPort: uint16(i), Proto: 6, Size: 200})
			time.Sleep(10 * time.Microsecond)
		}
	}()

	last := map[dataplane.UnitID]uint64{}
	for round := 0; round < 5; round++ {
		_, done, err := n.TakeSnapshot(time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		select {
		case g := <-done:
			for u, res := range g.Results {
				if !res.Consistent {
					continue
				}
				if res.Value < last[u] {
					t.Errorf("unit %v count regressed: %d -> %d", u, last[u], res.Value)
				}
				last[u] = res.Value
			}
		case <-time.After(10 * time.Second):
			t.Fatal("snapshot timed out")
		}
	}
	stop.Store(true)
	wg.Wait()
}

func TestQuiescentSnapshotExactCounts(t *testing.T) {
	// With the network quiet, every unit on a flow's path must report
	// exactly the packets that crossed it.
	ls := leafSpine(t)
	var delivered atomic.Int64
	n, err := New(Config{
		Topo:      ls.Topology,
		OnDeliver: func(*packet.Packet, topology.HostID) { delivered.Add(1) },
	})
	if err != nil {
		t.Fatal(err)
	}
	n.Start()
	defer n.Stop()

	const N = 57
	for i := 0; i < N; i++ {
		// Same-leaf traffic: host 0 -> host 1, single deterministic path.
		n.Inject(0, &packet.Packet{DstHost: 1, SrcPort: 7, DstPort: 80, Proto: 6, Size: 100})
	}
	deadline := time.Now().Add(5 * time.Second)
	for delivered.Load() < N && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if delivered.Load() != N {
		t.Fatalf("delivered %d of %d", delivered.Load(), N)
	}

	_, done, err := n.TakeSnapshot(time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case g := <-done:
		leaf0 := ls.Leaves[0]
		for _, id := range []dataplane.UnitID{
			{Node: leaf0, Port: 0, Dir: dataplane.Ingress},
			{Node: leaf0, Port: 1, Dir: dataplane.Egress},
		} {
			v, ok := g.Value(id)
			if !ok {
				t.Errorf("unit %v missing", id)
				continue
			}
			if v != N {
				t.Errorf("unit %v = %d, want %d", id, v, N)
			}
		}
	case <-time.After(10 * time.Second):
		t.Fatal("snapshot timed out")
	}
}

func TestManySequentialSnapshots(t *testing.T) {
	ls := leafSpine(t)
	n, err := New(Config{Topo: ls.Topology, MaxID: 16, WrapAround: true})
	if err != nil {
		t.Fatal(err)
	}
	n.Start()
	defer n.Stop()
	// More snapshots than the wrapped ID space: exercises rollover in a
	// concurrent run.
	for i := 0; i < 40; i++ {
		_, done, err := n.TakeSnapshot(100 * time.Microsecond)
		if err != nil {
			t.Fatal(err)
		}
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("snapshot %d timed out", i)
		}
	}
	if got := len(n.Snapshots()); got != 40 {
		t.Errorf("completed %d of 40", got)
	}
}

func TestStopIdempotentAndInjectAfterStop(t *testing.T) {
	ls := leafSpine(t)
	n, err := New(Config{Topo: ls.Topology})
	if err != nil {
		t.Fatal(err)
	}
	n.Start()
	n.Stop()
	n.Stop() // must not panic or hang
	if err := n.Inject(0, &packet.Packet{DstHost: 1}); err == nil {
		// The inbox may still have room; either outcome is fine as long
		// as nothing blocks. Just exercise the code path.
		_ = err
	}
	if _, _, err := n.TakeSnapshot(time.Millisecond); err == nil {
		t.Error("TakeSnapshot after Stop should fail")
	}
}

func TestChannelStateSnapshotLive(t *testing.T) {
	// Channel-state snapshots under the concurrent runtime: completion
	// needs every FIFO channel to advance, driven by traffic plus the
	// retry-time marker broadcasts.
	ls := leafSpine(t)
	n, err := New(Config{
		Topo:         ls.Topology,
		ChannelState: true,
		RetryEvery:   10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	n.Start()
	defer n.Stop()

	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			src := topology.HostID(i % 6)
			dst := topology.HostID((i + 3) % 6)
			n.Inject(src, &packet.Packet{
				DstHost: uint32(dst), SrcPort: uint16(i), DstPort: 80, Proto: 6, Size: 400,
			})
			if i%32 == 0 {
				time.Sleep(50 * time.Microsecond)
			}
		}
	}()
	defer func() { stop.Store(true); wg.Wait() }()

	for round := 0; round < 3; round++ {
		_, done, err := n.TakeSnapshot(time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		select {
		case g := <-done:
			if len(g.Results) != 28 {
				t.Errorf("round %d: results = %d", round, len(g.Results))
			}
		case <-time.After(15 * time.Second):
			t.Fatalf("channel-state snapshot %d never completed", round)
		}
	}
}
