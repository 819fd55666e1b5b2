package node

import (
	"fmt"
	"reflect"
	"testing"

	"speedlight/internal/control"
	"speedlight/internal/dataplane"
	"speedlight/internal/journal"
	"speedlight/internal/observer"
	"speedlight/internal/packet"
	"speedlight/internal/sim"
	"speedlight/internal/topology"
)

// stepNet hosts a whole Fabric on the test's goroutine: its clock moves
// only when the test moves it, and a forwarded packet waits in wire, in
// order, until pump carries it to the neighbour.
type stepNet struct {
	fab  *Fabric
	now  sim.Time
	wire []inFlight
	// toHosts counts what left an edge port.
	toHosts int
}

// inFlight is a packet on its way into node's port.
type inFlight struct {
	node topology.NodeID
	port int
	pkt  *packet.Packet
}

// stepHost is one switch's Host.
type stepHost struct {
	net  *stepNet
	spec *topology.Switch
}

func (h stepHost) Now() sim.Time { return h.net.now }

func (h stepHost) Forward(port int, pkt *packet.Packet) {
	switch peer := h.spec.Ports[port]; peer.Kind {
	case topology.PeerSwitch:
		h.net.wire = append(h.net.wire, inFlight{peer.Node, peer.Port, pkt})
	case topology.PeerHost:
		h.net.toHosts++
	}
}

// pump delivers until nothing is in flight.
func (n *stepNet) pump() {
	for len(n.wire) > 0 {
		f := n.wire[0]
		n.wire = n.wire[1:]
		n.fab.Switch(f.node).Packet(f.pkt, f.port)
	}
}

// newStepNet builds the 2x2x3 testbed as a stepped Fabric with the given
// recovery timers: every result reaches Result at once, on the net's
// clock.
func newStepNet(t *testing.T, channelState bool, retryAfter, excludeAfter sim.Duration) (*stepNet, *topology.LeafSpine) {
	t.Helper()
	ls, err := topology.NewLeafSpine(topology.LeafSpineConfig{
		Leaves: 2, Spines: 2, HostsPerLeaf: 3,
		HostLinkLatency: sim.Microsecond, FabricLinkLatency: sim.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	net := &stepNet{}
	attached := 0
	net.fab, err = NewFabric(FabricConfig{
		Topo: ls.Topology, DP: dataplane.Config{WrapAround: true, ChannelState: channelState},
		RetryAfter: retryAfter, ExcludeAfter: excludeAfter, Sink: &Sink{Journal: journal.NewSet(0)},
		Attach: func(spec *topology.Switch, _ *dataplane.Config) (Host, func(control.Result), error) {
			if int(spec.ID) != attached {
				t.Errorf("attach call %d is for switch %d", attached, spec.ID)
			}
			attached++
			return stepHost{net, spec}, func(res control.Result) { net.fab.Result(res, net.now) }, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if attached != 4 {
		t.Fatalf("attach ran %d times, want once per switch", attached)
	}
	return net, ls
}

// TestFabricRecoversLostInitiation steps the recovery path every
// wall-clock runtime runs, with no goroutine and no sleep: one switch
// never hears the initiation, the snapshot stays open until the retry
// timer names exactly the switches with a unit still out, once each, and
// the relayed initiate + poll closes it.
func TestFabricRecoversLostInitiation(t *testing.T) {
	const retryAfter = 20 * sim.Millisecond
	for _, channelState := range []bool{false, true} {
		t.Run(fmt.Sprintf("cs=%v", channelState), func(t *testing.T) {
			net, ls := newStepNet(t, channelState, retryAfter, 0)
			net.now = sim.Time(sim.Millisecond)
			id, sub, err := net.fab.Begin(net.now)
			if err != nil {
				t.Fatal(err)
			}
			// Every initiation floods in channel-state mode (wire's policy;
			// live's would leave the idle network waiting for the retry
			// whichever switch was skipped).
			lost := ls.Leaves[1]
			for _, spec := range ls.Switches {
				if spec.ID != lost {
					net.fab.Switch(spec.ID).Initiate(id, channelState)
				}
			}
			net.pump()
			select {
			case g := <-sub:
				t.Fatalf("snapshot %d assembled without switch %d: %d results", g.ID, lost, len(g.Results))
			default:
			}

			var relayed []string
			relay := func(dev topology.NodeID, id packet.SeqID) {
				relayed = append(relayed, fmt.Sprintf("sw%d id%d", dev, id))
				net.fab.Switch(dev).Initiate(id, channelState)
				net.fab.Switch(dev).Poll()
			}
			net.now += sim.Time(retryAfter) - 1
			if net.fab.Retries(net.now, relay); len(relayed) != 0 {
				t.Fatalf("Retries relayed %v before RetryAfter had passed", relayed)
			}
			net.now += 2
			net.fab.Retries(net.now, relay)
			// With channel state the spines' ingress units facing the lost
			// leaf gate on a marker it never sent, so they are owed a retry
			// too; the other leaf heard from both spines and is done.
			want := []string{fmt.Sprintf("sw%d id%d", lost, id)}
			if channelState {
				for _, spine := range ls.Spines {
					want = append(want, fmt.Sprintf("sw%d id%d", spine, id))
				}
			}
			if !reflect.DeepEqual(relayed, want) {
				t.Fatalf("Retries relayed %v, want %v: each once", relayed, want)
			}
			net.pump()

			var g *observer.GlobalSnapshot
			select {
			case g = <-sub:
			default:
				t.Fatal("the relayed initiate + poll did not complete the snapshot")
			}
			if g.ID != id || !g.Consistent || len(g.Excluded) != 0 || len(g.Results) != 28 {
				t.Errorf("snapshot %d: consistent=%v excluded=%v results=%d, want %d, consistent, none, 28",
					g.ID, g.Consistent, g.Excluded, len(g.Results), id)
			}
			if snaps := net.fab.Snapshots(); len(snaps) != 1 || snaps[0] != g {
				t.Errorf("Snapshots() = %v, want the one snapshot", snaps)
			}
			if got := net.fab.CompletedEpochs(); got != 1 {
				t.Errorf("CompletedEpochs() = %d, want 1", got)
			}
			net.now += sim.Time(retryAfter)
			if net.fab.Retries(net.now, relay); len(relayed) != len(want) {
				t.Errorf("a second Retries relayed %v", relayed[len(want):])
			}

			good, bad, incomplete := net.fab.Audit().Counts()
			if d := net.fab.Audit().Disagreements; good != 1 || bad != 0 || incomplete != 0 || d != 0 {
				t.Errorf("audit: %d consistent, %d inconsistent, %d incomplete, %d disagreement(s); want the one snapshot consistent",
					good, bad, incomplete, d)
			}
			if net.toHosts != 0 {
				t.Errorf("%d packet(s) left an edge port of an idle network", net.toHosts)
			}
		})
	}
}

// TestFabricExcludesSilentSwitch steps what a switch that stops answering
// does to a deployment, on the Fabric every runtime builds: it ignores
// initiations and the retry's relay alike, so each snapshot, retried at
// RetryAfter, finalizes at ExcludeAfter with exactly that switch
// excluded, and its subscription yields it. Without the exclusion timer every snapshot would stay
// pending, and with MaxID 256 the 129th Begin would find the window full.
func TestFabricExcludesSilentSwitch(t *testing.T) {
	const retryAfter, excludeAfter = 20 * sim.Millisecond, 50 * sim.Millisecond
	net, ls := newStepNet(t, false, retryAfter, 0)
	silent := ls.Leaves[1]
	relay := func(dev topology.NodeID, id packet.SeqID) {
		if dev != silent {
			t.Errorf("Retries relayed snapshot %d to switch %d, which answered", id, dev)
		}
	}
	// epoch begins a snapshot, initiates it everywhere but on the silent
	// switch, and runs the network dry.
	epoch := func() (packet.SeqID, <-chan *observer.GlobalSnapshot) {
		t.Helper()
		id, sub, err := net.fab.Begin(net.now)
		if err != nil {
			t.Fatalf("Begin at %v: %v", net.now, err)
		}
		for _, spec := range ls.Switches {
			if spec.ID != silent {
				net.fab.Switch(spec.ID).Initiate(id, false)
			}
		}
		net.pump()
		return id, sub
	}
	excluded := func(g *observer.GlobalSnapshot, id packet.SeqID, begun sim.Time) {
		t.Helper()
		if g.ID != id || !reflect.DeepEqual(g.Excluded, []topology.NodeID{silent}) || len(g.Results) != 28-10 ||
			!g.Consistent || g.CompletedAt != begun.Add(excludeAfter) {
			t.Fatalf("snapshot %d: id=%d excluded=%v results=%d consistent=%v completed at +%v; want switch %d excluded, 18 results, consistent, at +%v",
				id, g.ID, g.Excluded, len(g.Results), g.Consistent, g.CompletedAt.Sub(begun), silent, excludeAfter)
		}
	}

	net.now = sim.Time(sim.Millisecond)
	begun := net.now
	id, sub := epoch()
	net.now = begun.Add(retryAfter)
	net.fab.Retries(net.now, relay)
	net.now = begun.Add(excludeAfter) - 1
	if net.fab.Retries(net.now, relay); len(sub) != 0 {
		t.Fatal("the snapshot finalized before ExcludeAfter")
	}
	net.now++
	net.fab.Retries(net.now, relay)
	select {
	case g := <-sub:
		excluded(g, id, begun)
	default:
		t.Fatal("the snapshot is still pending at ExcludeAfter")
	}

	for i := 0; i < 300; i++ {
		begun = net.now
		id, sub = epoch()
		net.now = begun.Add(retryAfter)
		net.fab.Retries(net.now, relay)
		net.now = begun.Add(excludeAfter)
		net.fab.Retries(net.now, relay)
		g, ok := <-sub
		if !ok {
			t.Fatalf("cycle %d: the subscription closed empty", i)
		}
		excluded(g, id, begun)
	}
	if got := net.fab.obs.Pending(); got != 0 {
		t.Errorf("%d snapshots still pending, want 0", got)
	}
	if got := net.fab.CompletedEpochs(); got != 301 {
		t.Errorf("CompletedEpochs() = %d, want 301", got)
	}
	if d := net.fab.Audit().Disagreements; d != 0 {
		t.Errorf("audit: %d disagreement(s) with the observer", d)
	}
}
