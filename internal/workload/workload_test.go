package workload

import (
	"reflect"
	"testing"

	"speedlight/internal/emunet"
	"speedlight/internal/packet"
	"speedlight/internal/sim"
	"speedlight/internal/topology"
)

type capture struct {
	pkts  []*packet.Packet
	times []sim.Time
	hosts []topology.HostID
}

func testNet(t *testing.T, cap *capture) *emunet.Network {
	t.Helper()
	ls, err := topology.NewLeafSpine(topology.LeafSpineConfig{
		Leaves: 2, Spines: 2, HostsPerLeaf: 3,
		HostLinkLatency:   sim.Microsecond,
		FabricLinkLatency: sim.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	n, err := emunet.New(emunet.Config{
		Topo: ls.Topology,
		Seed: 11,
		OnDeliver: func(p *packet.Packet, h topology.HostID, at sim.Time) {
			cap.pkts = append(cap.pkts, p)
			cap.times = append(cap.times, at)
			cap.hosts = append(cap.hosts, h)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func hosts(ids ...topology.HostID) []topology.HostID { return ids }

func TestSendFlow(t *testing.T) {
	var cap capture
	n := testNet(t, &cap)
	stopped := false
	SendFlow(n, 0, 3, 1234, 80, 10, 500, sim.Microsecond, &stopped)
	n.RunFor(sim.Millisecond)
	if len(cap.pkts) != 10 {
		t.Fatalf("delivered %d of 10", len(cap.pkts))
	}
	for _, p := range cap.pkts {
		if p.SrcPort != 1234 || p.DstPort != 80 || p.Size != 500 {
			t.Fatalf("flow packet mangled: %+v", p)
		}
	}
}

func TestSendFlowStop(t *testing.T) {
	var cap capture
	n := testNet(t, &cap)
	stopped := false
	SendFlow(n, 0, 3, 1234, 80, 1000, 500, sim.Microsecond, &stopped)
	n.RunFor(100 * sim.Microsecond)
	stopped = true
	n.RunFor(10 * sim.Millisecond)
	if len(cap.pkts) >= 1000 {
		t.Error("stop flag ignored")
	}
	if len(cap.pkts) == 0 {
		t.Error("nothing delivered before stop")
	}
}

func TestTerasortShape(t *testing.T) {
	var cap capture
	n := testNet(t, &cap)
	ts := &Terasort{
		Net:          n,
		Mappers:      hosts(0, 1, 2),
		Reducers:     hosts(3, 4, 5),
		BurstPackets: 50,
	}
	ts.Start()
	n.RunFor(5 * sim.Millisecond)
	ts.Stop()
	if len(cap.pkts) < 100 {
		t.Fatalf("only %d packets", len(cap.pkts))
	}
	// All traffic flows mapper -> reducer.
	for _, p := range cap.pkts {
		if p.SrcHost > 2 || p.DstHost < 3 {
			t.Fatalf("unexpected flow %d -> %d", p.SrcHost, p.DstHost)
		}
		if p.Size != 1500 {
			t.Fatalf("packet size %d", p.Size)
		}
	}
	// Fixed 5-tuples: distinct flow hashes bounded by mapper x reducer
	// pairs.
	flows := map[uint64]bool{}
	for _, p := range cap.pkts {
		flows[p.FlowHash()] = true
	}
	if len(flows) > 9 {
		t.Errorf("terasort used %d flows, want <= 9 fixed pairs", len(flows))
	}
	n.RunFor(sim.Millisecond) // drain in-flight packets
	n2 := len(cap.pkts)
	n.RunFor(5 * sim.Millisecond)
	if len(cap.pkts) != n2 {
		t.Error("traffic continued after Stop")
	}
}

func TestPageRankSupersteps(t *testing.T) {
	var cap capture
	n := testNet(t, &cap)
	pr := &PageRank{
		Net:          n,
		Workers:      hosts(1, 2, 4, 5), // host 0 is the idle master
		Interval:     sim.Millisecond,
		BurstPackets: 20,
	}
	pr.Start()
	n.RunFor(4500 * sim.Microsecond) // 4 supersteps
	pr.Stop()
	if len(cap.pkts) == 0 {
		t.Fatal("no traffic")
	}
	// The master (host 0) neither sends nor receives.
	for i, p := range cap.pkts {
		if p.SrcHost == 0 || cap.hosts[i] == 0 {
			t.Fatal("master participated in pagerank traffic")
		}
	}
	// Supersteps: deliveries cluster right after each 1 ms boundary.
	// Check that no deliveries land in the back half of any period
	// (bursts are ~100 µs long).
	for _, at := range cap.times {
		phase := at % sim.Time(sim.Millisecond)
		if phase > sim.Time(700*sim.Microsecond) {
			t.Fatalf("delivery at phase %v µs: supersteps not synchronized", sim.Duration(phase).Micros())
		}
	}
}

func TestMemcacheShape(t *testing.T) {
	var cap capture
	n := testNet(t, &cap)
	mc := &Memcache{
		Net:     n,
		Clients: hosts(0),
		Servers: hosts(1, 2, 3, 4, 5),
	}
	mc.Start()
	n.RunFor(2 * sim.Millisecond)
	mc.Stop()
	if len(cap.pkts) < 100 {
		t.Fatalf("only %d packets", len(cap.pkts))
	}
	reqs, resps := 0, 0
	flows := map[uint64]bool{}
	for _, p := range cap.pkts {
		flows[p.FlowHash()] = true
		switch {
		case p.DstPort == 11211:
			reqs++
		case p.SrcPort == 11211:
			resps++
		default:
			t.Fatalf("unexpected packet %+v", p)
		}
	}
	if reqs == 0 || resps == 0 {
		t.Fatalf("reqs=%d resps=%d", reqs, resps)
	}
	// Responses roughly pair with requests.
	if resps < reqs*8/10 {
		t.Errorf("resps=%d much lower than reqs=%d", resps, reqs)
	}
	// Many ephemeral connections: flow count far exceeds host pairs.
	if len(flows) < 50 {
		t.Errorf("memcache used only %d flows; expected many ephemeral ones", len(flows))
	}
}

func TestUniformBackground(t *testing.T) {
	var cap capture
	n := testNet(t, &cap)
	u := &Uniform{Net: n, Hosts: hosts(0, 1, 2, 3, 4, 5)}
	u.Start()
	n.RunFor(2 * sim.Millisecond)
	u.Stop()
	if len(cap.pkts) < 200 {
		t.Fatalf("only %d packets", len(cap.pkts))
	}
	seen := map[uint32]bool{}
	for _, p := range cap.pkts {
		seen[p.SrcHost] = true
	}
	if len(seen) < 5 {
		t.Errorf("only %d hosts sent", len(seen))
	}
	n.RunFor(sim.Millisecond) // drain in-flight packets
	before := len(cap.pkts)
	n.RunFor(2 * sim.Millisecond)
	if len(cap.pkts) != before {
		t.Error("traffic after Stop")
	}
}

func TestAppNames(t *testing.T) {
	apps := []App{&Terasort{}, &PageRank{}, &Memcache{}, &Uniform{}}
	want := []string{"hadoop-terasort", "graphx-pagerank", "memcache", "uniform"}
	for i, a := range apps {
		if a.Name() != want[i] {
			t.Errorf("name %d = %s", i, a.Name())
		}
	}

	// The by-name table over the 2x2x3 testbed: every workload runs on
	// the network's own hosts, host 0 being GraphX's idle master and
	// memcache's client.
	n := testNet(t, &capture{})
	all := hosts(0, 1, 2, 3, 4, 5)
	for name, want := range map[string]App{
		"uniform":  &Uniform{Net: n, Hosts: all},
		"hadoop":   &Terasort{Net: n, Mappers: all, Reducers: all},
		"graphx":   &PageRank{Net: n, Workers: all[1:]},
		"memcache": &Memcache{Net: n, Clients: all[:1], Servers: all[1:]},
	} {
		got, err := ByName(name, n)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("ByName(%q) = %+v, want %+v", name, got, want)
		}
	}
	_, err := ByName("trace", n)
	if err == nil || err.Error() != `unknown workload "trace" (want uniform, hadoop, graphx or memcache)` {
		t.Errorf("unknown name: err = %v", err)
	}
}
