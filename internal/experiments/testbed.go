package experiments

import (
	"speedlight/internal/emunet"
	"speedlight/internal/sim"
	"speedlight/internal/topology"
)

// testbedTopo builds the paper's testbed fabric (Figure 8): two leaves
// and two spines carved as four virtual switches, six servers.
func testbedTopo() *topology.LeafSpine {
	ls, err := topology.NewLeafSpine(topology.LeafSpineConfig{
		Leaves: 2, Spines: 2, HostsPerLeaf: 3,
		HostLinkLatency:   sim.Microsecond,
		FabricLinkLatency: sim.Microsecond,
		// The testbed pairs 25 GbE server links with 100 GbE fabric
		// links (Section 8).
		HostRateBps:   25e9,
		FabricRateBps: 100e9,
	})
	if err != nil {
		panic(err) // static configuration; cannot fail
	}
	return ls
}

// testbedNet builds an emulated network over the testbed topology.
// shards selects the simulation engine (0/1 serial, >=2 parallel);
// results are byte-identical either way.
func testbedNet(seed int64, shards int, channelState bool, mod func(*emunet.Config)) (*emunet.Network, *topology.LeafSpine) {
	ls := testbedTopo()
	cfg := emunet.Config{
		Topo:         ls.Topology,
		Seed:         seed,
		Shards:       shards,
		MaxID:        256,
		WrapAround:   true,
		ChannelState: channelState,
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
