package routing

import (
	"fmt"
	"math/rand"
	"testing"

	"speedlight/internal/packet"
	"speedlight/internal/sim"
	"speedlight/internal/topology"
)

func TestComputeFIBsLeafSpine(t *testing.T) {
	ls := leafSpineOf(t, 2, 2, 3)
	fibs, err := ComputeFIBs(ls.Topology)
	if err != nil {
		t.Fatal(err)
	}
	if len(fibs) != 4 {
		t.Fatalf("fibs = %d", len(fibs))
	}
	leaf0 := fibs[ls.Leaves[0]]
	// Local host: single directly attached port.
	localHost := ls.Host(ls.Peer(ls.Leaves[0], 0).Host)
	if got := leaf0.Ports(localHost.ID); len(got) != 1 || got[0] != localHost.Port {
		t.Errorf("local next hop = %v", got)
	}
	// Remote host: both uplinks form the ECMP group.
	remoteHost := ls.Host(ls.Peer(ls.Leaves[1], 0).Host)
	if got := leaf0.Ports(remoteHost.ID); len(got) != 2 {
		t.Errorf("remote ECMP group = %v, want 2 uplinks", got)
	}
	// Spine: exactly one downlink to each host's leaf.
	spine0 := fibs[ls.Spines[0]]
	if got := spine0.Ports(remoteHost.ID); len(got) != 1 || got[0] != 1 {
		t.Errorf("spine next hop = %v, want [1]", got)
	}
	if leaf0.Ports(99) != nil {
		t.Error("unknown host should have no next hops")
	}
	if leaf0.Version == 0 {
		t.Error("FIB version must start nonzero")
	}
}

func TestComputeFIBsUnreachable(t *testing.T) {
	b := topology.NewBuilder()
	s0 := b.AddSwitch(2)
	s1 := b.AddSwitch(2)
	b.AttachHost(s0, 0, 0)
	b.AttachHost(s1, 0, 0)
	// No link between the switches.
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ComputeFIBs(topo); err == nil {
		t.Error("unreachable host not reported")
	}
}

func TestECMPDeterministicPerFlow(t *testing.T) {
	ports := []int{3, 4}
	var e ECMP
	p := &packet.Packet{SrcHost: 1, DstHost: 2, SrcPort: 1234, DstPort: 80, Proto: 6}
	first := e.Pick(p, ports, 0)
	for i := 0; i < 100; i++ {
		if e.Pick(p, ports, sim.Time(i)) != first {
			t.Fatal("ECMP changed port for same flow")
		}
	}
	if e.Name() != "ecmp" {
		t.Error("name")
	}
}

func TestECMPSpreadsFlows(t *testing.T) {
	ports := []int{0, 1, 2, 3}
	var e ECMP
	counts := make(map[int]int)
	for i := 0; i < 4000; i++ {
		p := &packet.Packet{SrcHost: uint32(i), DstHost: 2, SrcPort: uint16(i), DstPort: 80, Proto: 6}
		counts[e.Pick(p, ports, 0)]++
	}
	for port, c := range counts {
		if c < 700 || c > 1300 {
			t.Errorf("port %d got %d of 4000 flows", port, c)
		}
	}
	if len(counts) != 4 {
		t.Errorf("only %d ports used", len(counts))
	}
}

// TestECMPSingleCandidate: a one-port group answers without hashing,
// and the answer is the port the hash would have picked.
func TestECMPSingleCandidate(t *testing.T) {
	var e ECMP
	for i := 0; i < 100; i++ {
		p := &packet.Packet{SrcHost: uint32(i), DstHost: 2, SrcPort: uint16(7 * i), DstPort: 80, Proto: 6}
		ports := []int{i % 5}
		if got, hashed := e.Pick(p, ports, 0), ports[p.FlowHash()%1]; got != hashed {
			t.Fatalf("flow %d: Pick = %d, hash picks %d", i, got, hashed)
		}
	}
}

func TestFlowletStickyWithinGap(t *testing.T) {
	f := NewFlowlet(100*sim.Microsecond, rand.New(rand.NewSource(1)))
	ports := []int{0, 1, 2, 3}
	p := &packet.Packet{SrcHost: 1, DstHost: 2, SrcPort: 7, DstPort: 80, Proto: 6}
	first := f.Pick(p, ports, 0)
	// Closely spaced packets stay on the same port.
	for i := 1; i <= 50; i++ {
		now := sim.Time(i) * sim.Time(sim.Microsecond)
		if got := f.Pick(p, ports, now); got != first {
			t.Fatalf("flowlet moved mid-burst at packet %d", i)
		}
	}
	if f.Name() != "flowlet" {
		t.Error("name")
	}
}

func TestFlowletRepicksAfterGap(t *testing.T) {
	f := NewFlowlet(10*sim.Microsecond, rand.New(rand.NewSource(2)))
	ports := []int{0, 1, 2, 3, 4, 5, 6, 7}
	p := &packet.Packet{SrcHost: 1, DstHost: 2, SrcPort: 7, DstPort: 80, Proto: 6}
	seen := map[int]bool{}
	now := sim.Time(0)
	for i := 0; i < 200; i++ {
		seen[f.Pick(p, ports, now)] = true
		now = now.Add(sim.Duration(20 * sim.Microsecond)) // always exceeds the gap
	}
	if len(seen) < 3 {
		t.Errorf("flowlet re-picking visited only %d ports in 200 gaps", len(seen))
	}
}

func TestFlowletHandlesGroupShrink(t *testing.T) {
	f := NewFlowlet(100*sim.Microsecond, rand.New(rand.NewSource(3)))
	p := &packet.Packet{SrcHost: 1, DstHost: 2, SrcPort: 7, DstPort: 80, Proto: 6}
	got := f.Pick(p, []int{5, 6}, 0)
	if got != 5 && got != 6 {
		t.Fatalf("pick outside group: %d", got)
	}
	// The group changes mid-burst; the stored port may be invalid.
	got = f.Pick(p, []int{9}, 1)
	if got != 9 {
		t.Errorf("invalid stored port not re-picked: %d", got)
	}
}

func TestFlowletDistinctFlowsIndependent(t *testing.T) {
	f := NewFlowlet(100*sim.Microsecond, rand.New(rand.NewSource(4)))
	ports := []int{0, 1, 2, 3, 4, 5, 6, 7}
	seen := map[int]bool{}
	for i := 0; i < 200; i++ {
		p := &packet.Packet{SrcHost: uint32(i), DstHost: 2, SrcPort: uint16(i), DstPort: 80, Proto: 6}
		seen[f.Pick(p, ports, 0)] = true
	}
	if len(seen) < 4 {
		t.Errorf("flows concentrated on %d ports", len(seen))
	}
}

func TestComputeFIBsFatTree(t *testing.T) {
	ft, err := topology.NewFatTree(topology.FatTreeConfig{
		K:                 4,
		HostLinkLatency:   sim.Microsecond,
		FabricLinkLatency: sim.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	fibs, err := ComputeFIBs(ft.Topology)
	if err != nil {
		t.Fatal(err)
	}
	if len(fibs) != 20 {
		t.Fatalf("fibs = %d", len(fibs))
	}
	// Hosts 0,1 hang off edge[0][0]; host 15 is in the last pod.
	edge0 := fibs[ft.Edge[0][0]]
	// Same-edge host: direct port.
	if got := edge0.Ports(1); len(got) != 1 {
		t.Errorf("same-edge next hops = %v", got)
	}
	// Cross-pod host: both agg uplinks are equal cost.
	if got := edge0.Ports(15); len(got) != 2 {
		t.Errorf("cross-pod ECMP group = %v, want 2 uplinks", got)
	}
	// Same-pod, different-edge host (host 2 on edge[0][1]): still both
	// uplinks (paths via either agg).
	if got := edge0.Ports(2); len(got) != 2 {
		t.Errorf("same-pod ECMP group = %v", got)
	}
	// An agg switch reaching a remote pod uses both its core uplinks.
	agg := fibs[ft.Agg[0][0]]
	if got := agg.Ports(15); len(got) != 2 {
		t.Errorf("agg cross-pod group = %v", got)
	}
	// A core switch has exactly one port per destination pod.
	core := fibs[ft.Core[0]]
	if got := core.Ports(15); len(got) != 1 {
		t.Errorf("core next hops = %v", got)
	}
}

func TestUtilizedPairsFatTreeValleyFree(t *testing.T) {
	ft, err := topology.NewFatTree(topology.FatTreeConfig{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	fibs, err := ComputeFIBs(ft.Topology)
	if err != nil {
		t.Fatal(err)
	}
	used := UtilizedPairs(ft.Topology, fibs)
	// Valley-free: at an edge switch, traffic never goes uplink to
	// uplink (ports 2,3 are uplinks for k=4).
	for pod := range ft.Edge {
		for _, e := range ft.Edge[pod] {
			for _, in := range []int{2, 3} {
				for _, out := range []int{2, 3} {
					if used[e].Has(in, out) {
						t.Errorf("edge %d: uplink-to-uplink pair (%d,%d) marked utilized", e, in, out)
					}
				}
			}
		}
	}
	// But host-to-uplink pairs are used.
	e := ft.Edge[0][0]
	if !used[e].Has(0, 2) && !used[e].Has(0, 3) {
		t.Error("no host-to-uplink pair utilized at edge 0")
	}
}

func TestComputeFIBsFilteredSpineDown(t *testing.T) {
	ls := leafSpineOf(t, 2, 2, 3)
	full, err := ComputeFIBs(ls.Topology)
	if err != nil {
		t.Fatal(err)
	}
	downSpine := ls.Spines[0]
	fibs := ComputeFIBsFiltered(ls.Topology, Filter{
		SwitchDown: func(n topology.NodeID) bool { return n == downSpine },
	})

	// The down spine gets an empty table.
	if got := len(fibs[downSpine].NextHops); got != 0 {
		t.Fatalf("down spine has %d next-hop entries, want 0", got)
	}
	// Leaves lose the ECMP member through the down spine but stay
	// connected via the surviving one.
	leaf0 := fibs[ls.Leaves[0]]
	remote := ls.Host(ls.Peer(ls.Leaves[1], 0).Host)
	fullGroup := full[ls.Leaves[0]].Ports(remote.ID)
	group := leaf0.Ports(remote.ID)
	if len(group) != len(fullGroup)-1 {
		t.Fatalf("filtered ECMP group %v, want one fewer than %v", group, fullGroup)
	}
	// Local delivery is untouched.
	local := ls.Host(ls.Peer(ls.Leaves[0], 0).Host)
	if got := leaf0.Ports(local.ID); len(got) != 1 || got[0] != local.Port {
		t.Errorf("local next hop = %v", got)
	}
}

func TestComputeFIBsFilteredPartition(t *testing.T) {
	// A chain s0 - s1 with one host each; draining the only link
	// partitions the fabric. The filtered computation must not error:
	// the cross-partition entries simply vanish.
	b := topology.NewBuilder()
	s0 := b.AddSwitch(2)
	s1 := b.AddSwitch(2)
	b.Connect(s0, 0, s1, 0, sim.Microsecond)
	h0 := b.AttachHost(s0, 1, sim.Microsecond)
	h1 := b.AttachHost(s1, 1, sim.Microsecond)
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	fibs := ComputeFIBsFiltered(topo, Filter{
		LinkDown: func(n topology.NodeID, p int) bool {
			return (n == s0 && p == 0) || (n == s1 && p == 0)
		},
	})
	if got := fibs[s0].Ports(h1); got != nil {
		t.Errorf("s0 still routes to h1 across a drained link: %v", got)
	}
	if got := fibs[s1].Ports(h0); got != nil {
		t.Errorf("s1 still routes to h0 across a drained link: %v", got)
	}
	// Each side keeps its local host.
	if got := fibs[s0].Ports(h0); len(got) != 1 {
		t.Errorf("s0 lost its local host: %v", got)
	}
	if got := fibs[s1].Ports(h1); len(got) != 1 {
		t.Errorf("s1 lost its local host: %v", got)
	}
}

// utilizedPairsRef is the depth-first walk UtilizedPairs replaced: one
// walk per ordered host pair, memoised per (switch, ingress port,
// destination). It is the oracle of TestUtilizedPairsMatchesReference.
func utilizedPairsRef(t *topology.Topology, fibs map[topology.NodeID]*FIB) map[topology.NodeID]map[[2]int]bool {
	used := make(map[topology.NodeID]map[[2]int]bool, len(t.Switches))
	for _, sw := range t.Switches {
		used[sw.ID] = make(map[[2]int]bool)
	}
	type key struct {
		node topology.NodeID
		in   int
		dst  topology.HostID
	}
	seen := make(map[key]bool)
	var walk func(node topology.NodeID, in int, dst topology.HostID)
	walk = func(node topology.NodeID, in int, dst topology.HostID) {
		k := key{node, in, dst}
		if seen[k] {
			return
		}
		seen[k] = true
		fib := fibs[node]
		if fib == nil {
			return
		}
		for _, e := range fib.Ports(dst) {
			used[node][[2]int{in, e}] = true
			peer := t.Peer(node, e)
			if peer.Kind == topology.PeerSwitch {
				walk(peer.Node, peer.Port, dst)
			}
		}
	}
	for _, src := range t.Hosts {
		for _, dst := range t.Hosts {
			if src.ID == dst.ID {
				continue
			}
			walk(src.Node, src.Port, dst.ID)
		}
	}
	return used
}

func leafSpineOf(tb testing.TB, leaves, spines, hosts int) *topology.LeafSpine {
	tb.Helper()
	ls, err := topology.NewLeafSpine(topology.LeafSpineConfig{
		Leaves: leaves, Spines: spines, HostsPerLeaf: hosts,
		HostLinkLatency: sim.Microsecond, FabricLinkLatency: sim.Microsecond,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return ls
}

func fatTree(tb testing.TB, k int) *topology.Topology {
	tb.Helper()
	ft, err := topology.NewFatTree(topology.FatTreeConfig{K: k})
	if err != nil {
		tb.Fatal(err)
	}
	return ft.Topology
}

// star is one switch with a host on every port: the Fig. 10
// bisection's topology.
func star(tb testing.TB, ports int) *topology.Topology {
	tb.Helper()
	b := topology.NewBuilder()
	sw := b.AddSwitch(ports)
	for p := 0; p < ports; p++ {
		b.AttachHost(sw, p, sim.Microsecond)
	}
	topo, err := b.Build()
	if err != nil {
		tb.Fatal(err)
	}
	return topo
}

func fibsOf(tb testing.TB, topo *topology.Topology) map[topology.NodeID]*FIB {
	tb.Helper()
	fibs, err := ComputeFIBs(topo)
	if err != nil {
		tb.Fatal(err)
	}
	return fibs
}

// TestUtilizedPairsMatchesReference: the per-destination walk marks
// exactly the pairs the per-pair walk does, on every topology the
// runtimes build and on FIBs computed around churn.
func TestUtilizedPairsMatchesReference(t *testing.T) {
	type tc struct {
		name string
		topo *topology.Topology
		fibs map[topology.NodeID]*FIB
	}
	var cases []tc
	full := func(name string, topo *topology.Topology) {
		cases = append(cases, tc{name, topo, fibsOf(t, topo)})
	}
	for _, hosts := range []int{1, 4, 28} {
		full(fmt.Sprintf("leaf-spine 8x4x%d", hosts), leafSpineOf(t, 8, 4, hosts).Topology)
	}
	full("leaf-spine 2x2x3", leafSpineOf(t, 2, 2, 3).Topology)
	full("fat-tree k=4", fatTree(t, 4))
	full("fat-tree k=6", fatTree(t, 6))
	full("star 64", star(t, 64))
	ls := leafSpineOf(t, 8, 4, 4)
	spine, leaf, uplink := ls.Spines[0], ls.Leaves[0], ls.UplinkPorts(ls.Leaves[0])[0]
	peer := ls.Peer(leaf, uplink)
	drained := Filter{LinkDown: func(n topology.NodeID, p int) bool {
		return (n == leaf && p == uplink) || (n == peer.Node && p == peer.Port)
	}}
	// A FIB pushed to one leaf alone leaves the fabric's routes
	// asymmetric: the spine behind the drained uplink still sends down it.
	pushed := fibsOf(t, ls.Topology)
	pushed[leaf] = ComputeFIBsFiltered(ls.Topology, drained)[leaf]
	cases = append(cases,
		tc{"leaf-spine 8x4x4 spine down", ls.Topology, ComputeFIBsFiltered(ls.Topology, Filter{
			SwitchDown: func(n topology.NodeID) bool { return n == spine },
		})},
		tc{"leaf-spine 8x4x4 uplink drained", ls.Topology, ComputeFIBsFiltered(ls.Topology, drained)},
		tc{"leaf-spine 8x4x4 uplink drained at one leaf", ls.Topology, pushed},
	)
	for _, c := range cases {
		got, want := UtilizedPairs(c.topo, c.fibs), utilizedPairsRef(c.topo, c.fibs)
		if len(got) != len(c.topo.Switches) {
			t.Fatalf("%s: %d entries for %d switches", c.name, len(got), len(c.topo.Switches))
		}
		total := 0
		for _, sw := range c.topo.Switches {
			n := 0
			for in := range sw.Ports {
				for out := range sw.Ports {
					if has, ref := got[sw.ID].Has(in, out), want[sw.ID][[2]int{in, out}]; has != ref {
						t.Errorf("%s: switch %d pair (%d,%d): got %v, reference %v", c.name, sw.ID, in, out, has, ref)
					} else if ref {
						n++
					}
				}
			}
			if n != len(want[sw.ID]) {
				t.Errorf("%s: switch %d: reference has %d pairs, %d of them on its ports", c.name, sw.ID, len(want[sw.ID]), n)
			}
			total += n
		}
		if total == 0 {
			t.Errorf("%s: no pair utilized", c.name)
		}
	}
}

// BenchmarkUtilizedPairs prices the walk at every fabric build and churn
// reroute, beside the per-pair reference: the snapshot_storm's 288-port
// leaf-spine, the 96-port fabric of fabric_serial, and the Fig. 10
// bisection's 64-port star.
func BenchmarkUtilizedPairs(b *testing.B) {
	for _, c := range []struct {
		name string
		topo *topology.Topology
	}{
		{"leaf-spine-288", leafSpineOf(b, 8, 4, 28).Topology},
		{"fabric-96", leafSpineOf(b, 8, 4, 4).Topology},
		{"star-64", star(b, 64)},
	} {
		fibs := fibsOf(b, c.topo)
		b.Run(c.name+"/walk", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkPairs = UtilizedPairs(c.topo, fibs)
			}
		})
		b.Run(c.name+"/ref", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkRef = utilizedPairsRef(c.topo, fibs)
			}
		})
	}
}

var (
	sinkPairs []PortPairs
	sinkRef   map[topology.NodeID]map[[2]int]bool
)
