package experiments

import (
	"speedlight/internal/emunet"
	"speedlight/internal/packet"
	"speedlight/internal/sim"
	"speedlight/internal/topology"
	"speedlight/internal/workload"
)

// The paper's testbed pairs 25 GbE server links with 100 GbE fabric
// links (Section 8).
const testbedHostBps, testbedFabricBps = 25e9, 100e9

// testbedTopo builds the paper's testbed fabric (Figure 8): two leaves
// and two spines carved as four virtual switches, six servers, with
// host links at hostBps and fabric links at fabricBps.
func testbedTopo(hostBps, fabricBps float64) *topology.LeafSpine {
	ls, err := topology.NewLeafSpine(topology.LeafSpineConfig{
		Leaves: 2, Spines: 2, HostsPerLeaf: 3,
		HostLinkLatency:   sim.Microsecond,
		FabricLinkLatency: sim.Microsecond,
		HostRateBps:       hostBps,
		FabricRateBps:     fabricBps,
	})
	if err != nil {
		panic(err) // static configuration; cannot fail
	}
	return ls
}

// testbedNet builds an emulated network over the testbed topology at
// the given link rates; mod, if non-nil, adjusts the configuration.
// shards selects the simulation engine (0/1 serial, >=2 parallel);
// results are byte-identical either way.
func testbedNet(seed int64, shards int, hostBps, fabricBps float64, mod func(*emunet.Config)) (*emunet.Network, *topology.LeafSpine) {
	ls := testbedTopo(hostBps, fabricBps)
	cfg := emunet.Config{
		Topo:       ls.Topology,
		Seed:       seed,
		Shards:     shards,
		MaxID:      256,
		WrapAround: true,
	}
	if mod != nil {
		mod(&cfg)
	}
	n, err := emunet.New(cfg)
	if err != nil {
		panic(err)
	}
	return n, ls
}

// syncSeries is the sync campaign the testbed measurements share: it
// starts all-to-all background traffic on n (one size-byte packet per
// host every interval; 0 picks the workload default), warms up 2 ms,
// then takes count snapshots 2 ms apart, each fired for lead after its
// slot, and runs drain longer so stragglers finish.
func syncSeries(n *emunet.Network, interval sim.Duration, size uint32, count int, lead, drain sim.Duration,
	fire func(at sim.Time) (packet.SeqID, error)) []packet.SeqID {
	bg := &workload.Uniform{Net: n, Hosts: n.Topo().HostIDs(), Interval: interval, PacketSize: size}
	bg.Start()
	n.RunFor(2 * sim.Millisecond)
	return n.SnapshotSeries(count, 2*sim.Millisecond, drain, func(now sim.Time) (packet.SeqID, error) {
		return fire(now.Add(lead))
	})
}

// starNet builds one switch with a host on every port. The unbounded ID
// space isolates the control plane from the observer's rollover window,
// and recovery is off, so a lost notification stays lost. notifCapacity
// 0 keeps the default notification buffer.
func starNet(ports int, seed int64, shards, notifCapacity int) *emunet.Network {
	b := topology.NewBuilder()
	sw := b.AddSwitch(ports)
	for p := 0; p < ports; p++ {
		b.AttachHost(sw, p, sim.Microsecond)
	}
	t, err := b.Build()
	if err != nil {
		panic(err)
	}
	n, err := emunet.New(emunet.Config{
		Topo:          t,
		Seed:          seed,
		Shards:        shards,
		MaxID:         1 << 20,
		NotifCapacity: notifCapacity,
		RetryAfter:    -1,
		ExcludeAfter:  -1,
	})
	if err != nil {
		panic(err)
	}
	return n
}
