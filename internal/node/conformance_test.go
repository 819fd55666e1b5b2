package node_test

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"speedlight/internal/audit"
	"speedlight/internal/dataplane"
	"speedlight/internal/emunet"
	"speedlight/internal/journal"
	"speedlight/internal/live"
	"speedlight/internal/node"
	"speedlight/internal/observer"
	"speedlight/internal/packet"
	"speedlight/internal/sim"
	"speedlight/internal/topology"
)

// runtime is what the conformance test needs of a runtime. Deliveries
// come back through the hook its constructor was given.
type runtime interface {
	inject(src topology.HostID, pkt *packet.Packet)
	// drain returns once the network is empty.
	drain()
	// snapshot takes one snapshot of the drained network.
	snapshot() *observer.GlobalSnapshot
	// audit stops the runtime and audits its journal.
	audit() *audit.Report
}

// hosts is the test's side of the edge: what it sent and what came
// back.
type hosts struct {
	sent               int64
	delivered, markers atomic.Int64
}

func (h *hosts) deliver(pkt *packet.Packet, _ topology.HostID) {
	h.delivered.Add(1)
	if topology.HostID(pkt.DstHost) == node.BroadcastHost {
		h.markers.Add(1)
	}
}

// await polls cond: real asynchrony has no event to wait on here.
func await(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// emu runs the emulator: virtual time moves only inside drain and
// snapshot.
type emu struct {
	t *testing.T
	n *emunet.Network
}

func newEmu(t *testing.T, topo *topology.Topology, channelState bool, h *hosts) runtime {
	n, err := emunet.New(emunet.Config{
		Topo: topo, Seed: 1, MaxID: 256, WrapAround: true, ChannelState: channelState,
		Journal:   journal.NewSet(0),
		OnDeliver: func(pkt *packet.Packet, host topology.HostID, _ sim.Time) { h.deliver(pkt, host) },
	})
	if err != nil {
		t.Fatal(err)
	}
	return &emu{t, n}
}

func (e *emu) inject(src topology.HostID, pkt *packet.Packet) { e.n.InjectFromHost(src, pkt) }
func (e *emu) drain()                                         { e.n.RunFor(sim.Millisecond) }
func (e *emu) audit() *audit.Report                           { return e.n.Audit() }

func (e *emu) snapshot() *observer.GlobalSnapshot {
	if _, err := e.n.ScheduleSnapshot(e.n.Engine().Now().Add(sim.Millisecond)); err != nil {
		e.t.Fatal(err)
	}
	e.n.RunFor(30 * sim.Millisecond)
	snaps := e.n.Snapshots()
	if len(snaps) != 1 {
		e.t.Fatalf("%d snapshots completed, want 1", len(snaps))
	}
	return snaps[0]
}

// realtime runs a wallClocks runtime: behind the Runtime live and wire
// share, this test cannot tell them apart.
type realtime struct {
	t    *testing.T
	h    *hosts
	rt   *live.Runtime
	stop func()
}

// newRealtime is the one builder of both wall-clock runtimes: deploy is
// a wallClocks row's.
func newRealtime(deploy func(*testing.T, live.Config) (*live.Runtime, func(), func(topology.NodeID))) func(*testing.T, *topology.Topology, bool, *hosts) runtime {
	return func(t *testing.T, topo *topology.Topology, channelState bool, h *hosts) runtime {
		rt, stop, _ := deploy(t, live.Config{
			Topo: topo, MaxID: 256, WrapAround: true, ChannelState: channelState,
			RetryEvery: 5 * time.Millisecond, Journal: journal.NewSet(0), OnDeliver: h.deliver,
		})
		return &realtime{t, h, rt, stop}
	}
}

func (r *realtime) inject(src topology.HostID, pkt *packet.Packet) {
	if err := r.rt.Inject(src, pkt); err != nil {
		r.t.Fatal(err)
	}
}

func (r *realtime) drain() {
	await(r.t, "every packet sent to be delivered", func() bool { return r.h.delivered.Load() == r.h.sent })
}

func (r *realtime) audit() *audit.Report {
	r.stop() // the rings are quiet from here on
	return r.rt.Audit()
}

func (r *realtime) snapshot() *observer.GlobalSnapshot {
	_, done, err := r.rt.TakeSnapshot(0)
	if err != nil {
		r.t.Fatal(err)
	}
	select {
	case g := <-done:
		return g
	case <-time.After(10 * time.Second):
		r.t.Fatal("snapshot never completed")
		return nil
	}
}

// TestRuntimeConformance: the three runtimes run one switch step, so
// the same traffic leaves the same cut. Fixed host pairs send 600
// packets, the network drains, and one snapshot of the idle network
// must account for every one of them at the edge.
func TestRuntimeConformance(t *testing.T) {
	type builder struct {
		name  string
		build func(*testing.T, *topology.Topology, bool, *hosts) runtime
	}
	runtimes := []builder{{"emunet", newEmu}}
	for _, wc := range wallClocks {
		runtimes = append(runtimes, builder{wc.name, newRealtime(wc.deploy)})
	}
	for _, rt := range runtimes {
		for _, channelState := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/cs=%v", rt.name, channelState), func(t *testing.T) {
				ls, err := topology.NewLeafSpine(topology.LeafSpineConfig{
					Leaves: 2, Spines: 2, HostsPerLeaf: 3,
					HostLinkLatency: sim.Microsecond, FabricLinkLatency: sim.Microsecond,
				})
				if err != nil {
					t.Fatal(err)
				}
				h := &hosts{}
				net := rt.build(t, ls.Topology, channelState, h)

				// Each host sends to one host across the fabric and one on
				// its own leaf, alternating; a burst of 60 at a time keeps a
				// loopback socket buffer from dropping any.
				for round := 0; round < 100; round++ {
					for i, src := range ls.Hosts {
						dst := ls.Hosts[(i+3)%6]
						if round%2 == 1 {
							dst = ls.Hosts[i/3*3+(i+1)%3]
						}
						net.inject(src.ID, &packet.Packet{
							DstHost: uint32(dst.ID), SrcPort: uint16(round), DstPort: 80, Proto: 6, Size: 200,
						})
						h.sent++
					}
					if round%10 == 9 {
						net.drain()
					}
				}
				if got := h.delivered.Load(); got != 600 || h.sent != 600 {
					t.Fatalf("sent %d, delivered %d, want 600 of each", h.sent, got)
				}

				g := net.snapshot()
				if !g.Consistent || len(g.Excluded) != 0 || len(g.Results) != 28 {
					t.Errorf("snapshot: consistent=%v excluded=%v results=%d, want consistent, none, 28",
						g.Consistent, g.Excluded, len(g.Results))
				}
				var in, out uint64
				for _, host := range ls.Hosts {
					in += g.Results[dataplane.UnitID{Node: host.Node, Port: host.Port, Dir: dataplane.Ingress}].Value
					out += g.Results[dataplane.UnitID{Node: host.Node, Port: host.Port, Dir: dataplane.Egress}].Value
				}
				if in != 600 || out != 600 {
					t.Errorf("host-facing units counted %d in and %d out, want the 600 sent and delivered", in, out)
				}

				rep := net.audit()
				good, bad, incomplete := rep.Counts()
				if good != 1 || bad != 0 || incomplete != 0 || rep.Disagreements != 0 {
					t.Errorf("audit: %d consistent, %d inconsistent, %d incomplete, %d disagreement(s); want the one snapshot consistent",
						good, bad, incomplete, rep.Disagreements)
				}
				if got := h.markers.Load(); got != 0 {
					t.Errorf("%d marker broadcast(s) reached a host", got)
				}
			})
		}
	}
}
