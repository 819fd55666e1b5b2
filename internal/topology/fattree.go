package topology

import (
	"fmt"

	"speedlight/internal/sim"
)

// FatTree is a three-tier k-ary fat-tree: k pods of k/2 edge and k/2
// aggregation switches each, (k/2)^2 core switches, and k/2 hosts per
// edge switch — the canonical datacenter fabric the paper's snapshots
// are meant to observe at scale.
type FatTree struct {
	*Topology
	K int
	// Edge[pod][i], Agg[pod][i] index the pod switches; Core[j] the
	// core layer.
	Edge [][]NodeID
	Agg  [][]NodeID
	Core []NodeID
}

// FatTreeConfig parameterizes the fabric.
type FatTreeConfig struct {
	// K is the switch radix; must be even and at least 2.
	K int
	// HostLinkLatency and FabricLinkLatency mirror LeafSpineConfig.
	HostLinkLatency   sim.Duration
	FabricLinkLatency sim.Duration
}

// NewFatTree builds a k-ary fat-tree.
//
// Port conventions: edge switches use ports [0, k/2) for hosts and
// [k/2, k) for aggregation uplinks; aggregation switches use [0, k/2)
// for edge downlinks and [k/2, k) for core uplinks; core switch j uses
// port p for pod p.
//
//speedlight:api the fabric the routing, node, emunet and topology tests share (PAPER.md's substitution table)
func NewFatTree(cfg FatTreeConfig) (*FatTree, error) {
	k := cfg.K
	if k < 2 || k%2 != 0 {
		return nil, fmt.Errorf("topology: fat-tree k must be even and >= 2, got %d", k)
	}
	half := k / 2
	b := NewBuilder()
	ft := &FatTree{K: k}

	for pod := 0; pod < k; pod++ {
		var edges, aggs []NodeID
		for i := 0; i < half; i++ {
			edges = append(edges, b.AddSwitch(k))
		}
		for i := 0; i < half; i++ {
			aggs = append(aggs, b.AddSwitch(k))
		}
		ft.Edge = append(ft.Edge, edges)
		ft.Agg = append(ft.Agg, aggs)
	}
	for j := 0; j < half*half; j++ {
		ft.Core = append(ft.Core, b.AddSwitch(k))
	}

	for pod := 0; pod < k; pod++ {
		for e, edge := range ft.Edge[pod] {
			// Hosts below.
			for h := 0; h < half; h++ {
				b.AttachHost(edge, h, cfg.HostLinkLatency)
			}
			// Full mesh edge <-> agg within the pod.
			for a, agg := range ft.Agg[pod] {
				b.Connect(edge, half+a, agg, e, cfg.FabricLinkLatency)
			}
		}
		// Aggregation a connects to core group a: cores
		// [a*half, (a+1)*half), one per uplink.
		for a, agg := range ft.Agg[pod] {
			for u := 0; u < half; u++ {
				core := ft.Core[a*half+u]
				b.Connect(agg, half+u, core, pod, cfg.FabricLinkLatency)
			}
		}
	}
	t, err := b.Build()
	if err != nil {
		return nil, err
	}
	ft.Topology = t
	return ft, nil
}
