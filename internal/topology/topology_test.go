package topology

import (
	"slices"
	"testing"

	"speedlight/internal/sim"
)

func TestBuilderBasic(t *testing.T) {
	b := NewBuilder()
	s0 := b.AddSwitch(4)
	s1 := b.AddSwitch(4)
	h0 := b.AttachHost(s0, 0, sim.Microsecond)
	b.Connect(s0, 3, s1, 3, 2*sim.Microsecond)
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(topo.Switches) != 2 || len(topo.Hosts) != 1 {
		t.Fatalf("sizes: %d switches, %d hosts", len(topo.Switches), len(topo.Hosts))
	}
	p := topo.Peer(s0, 0)
	if p.Kind != PeerHost || p.Host != h0 {
		t.Errorf("port 0 peer = %+v", p)
	}
	p = topo.Peer(s0, 3)
	if p.Kind != PeerSwitch || p.Node != s1 || p.Port != 3 {
		t.Errorf("port 3 peer = %+v", p)
	}
	// Symmetric side.
	p = topo.Peer(s1, 3)
	if p.Kind != PeerSwitch || p.Node != s0 || p.Port != 3 {
		t.Errorf("s1 port 3 peer = %+v", p)
	}
	if topo.Peer(s0, 1).Kind != PeerNone {
		t.Error("unconnected port should be PeerNone")
	}
	if topo.Host(h0) == nil || topo.Host(h0).Node != s0 {
		t.Error("host lookup failed")
	}
	if topo.Host(99) != nil {
		t.Error("unknown host lookup should be nil")
	}
	if topo.Switch(NodeID(5)) != nil {
		t.Error("unknown switch lookup should be nil")
	}
}

func TestBuilderRejectsDoubleUse(t *testing.T) {
	b := NewBuilder()
	s0 := b.AddSwitch(2)
	s1 := b.AddSwitch(2)
	b.AttachHost(s0, 0, 0)
	b.Connect(s0, 0, s1, 0, 0) // port already used by host
	if _, err := b.Build(); err == nil {
		t.Error("double port use not rejected")
	}
}

func TestBuilderRejectsBadPort(t *testing.T) {
	b := NewBuilder()
	s0 := b.AddSwitch(2)
	b.AttachHost(s0, 7, 0)
	if _, err := b.Build(); err == nil {
		t.Error("out-of-range port not rejected")
	}
}

func TestBuilderRejectsUnknownSwitch(t *testing.T) {
	b := NewBuilder()
	b.AttachHost(NodeID(3), 0, 0)
	if _, err := b.Build(); err == nil {
		t.Error("unknown switch not rejected")
	}
}

// TestHostsOn: each host records the switch and port it is attached
// to, and that port names the host back.
func TestHostsOn(t *testing.T) {
	b := NewBuilder()
	s0 := b.AddSwitch(4)
	s1 := b.AddSwitch(4)
	b.AttachHost(s0, 0, 0)
	b.AttachHost(s1, 0, 0)
	b.AttachHost(s0, 1, 0)
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		node NodeID
		port int
	}{{s0, 0}, {s1, 0}, {s0, 1}}
	for i, h := range topo.Hosts {
		if h.Node != want[i].node || h.Port != want[i].port {
			t.Errorf("host %d on (%d, %d), want %v", h.ID, h.Node, h.Port, want[i])
		}
		if p := topo.Peer(h.Node, h.Port); p.Kind != PeerHost || p.Host != h.ID {
			t.Errorf("port (%d, %d) peer = %+v, want host %d", h.Node, h.Port, p, h.ID)
		}
	}
}

func TestLeafSpine(t *testing.T) {
	ls, err := NewLeafSpine(LeafSpineConfig{
		Leaves: 2, Spines: 2, HostsPerLeaf: 3,
		HostLinkLatency:   sim.Microsecond,
		FabricLinkLatency: 2 * sim.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(ls.Switches) != 4 {
		t.Fatalf("switches = %d", len(ls.Switches))
	}
	if len(ls.Hosts) != 6 {
		t.Fatalf("hosts = %d", len(ls.Hosts))
	}
	// Leaf 0 uplink 0 reaches spine 0 at port 0; uplink 1 reaches spine 1.
	up := ls.UplinkPorts(ls.Leaves[0])
	if len(up) != 2 || up[0] != 3 || up[1] != 4 {
		t.Fatalf("uplinks = %v", up)
	}
	for si, port := range up {
		p := ls.Peer(ls.Leaves[0], port)
		if p.Kind != PeerSwitch || p.Node != ls.Spines[si] {
			t.Errorf("uplink %d peer = %+v", si, p)
		}
		if p.Latency != 2*sim.Microsecond {
			t.Errorf("fabric latency = %d", p.Latency)
		}
	}
	// Spine 1 port 0 reaches leaf 0.
	p := ls.Peer(ls.Spines[1], 0)
	if p.Kind != PeerSwitch || p.Node != ls.Leaves[0] {
		t.Errorf("spine downlink peer = %+v", p)
	}
	// Host links.
	for _, h := range ls.Hosts {
		if !slices.Contains(ls.Leaves, h.Node) {
			t.Errorf("host %d on non-leaf %d", h.ID, h.Node)
		}
		if h.Latency != sim.Microsecond {
			t.Errorf("host latency = %d", h.Latency)
		}
	}
}

func TestLeafSpineRejectsBadConfig(t *testing.T) {
	if _, err := NewLeafSpine(LeafSpineConfig{Leaves: 0, Spines: 1}); err == nil {
		t.Error("bad config accepted")
	}
}

func TestLeafSpinePaperTestbed(t *testing.T) {
	// The paper's testbed: 2 leaves, 2 spines, 6 servers (3 per leaf).
	ls, err := NewLeafSpine(LeafSpineConfig{
		Leaves: 2, Spines: 2, HostsPerLeaf: 3,
		HostLinkLatency:   sim.Microsecond,
		FabricLinkLatency: sim.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Every leaf must reach every spine.
	for _, leaf := range ls.Leaves {
		seen := map[NodeID]bool{}
		for _, port := range ls.UplinkPorts(leaf) {
			p := ls.Peer(leaf, port)
			seen[p.Node] = true
		}
		for _, spine := range ls.Spines {
			if !seen[spine] {
				t.Errorf("leaf %d missing uplink to spine %d", leaf, spine)
			}
		}
	}
}
