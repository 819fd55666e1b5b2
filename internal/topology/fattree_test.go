package topology

import (
	"testing"

	"speedlight/internal/sim"
)

func TestFatTreeRejectsBadK(t *testing.T) {
	for _, k := range []int{0, 1, 3, 5, -2} {
		if _, err := NewFatTree(FatTreeConfig{K: k}); err == nil {
			t.Errorf("k=%d accepted", k)
		}
	}
}

func TestFatTreeK4Shape(t *testing.T) {
	ft, err := NewFatTree(FatTreeConfig{
		K:                 4,
		HostLinkLatency:   sim.Microsecond,
		FabricLinkLatency: 2 * sim.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(ft.Switches); got != 20 {
		t.Errorf("switches = %d, want 20", got)
	}
	if got := len(ft.Hosts); got != 16 {
		t.Errorf("hosts = %d, want 16", got)
	}
	if len(ft.Edge) != 4 || len(ft.Edge[0]) != 2 || len(ft.Agg[0]) != 2 || len(ft.Core) != 4 {
		t.Fatalf("layer shapes wrong: %d pods, %d edge, %d agg, %d core",
			len(ft.Edge), len(ft.Edge[0]), len(ft.Agg[0]), len(ft.Core))
	}
	// Every edge switch: 2 hosts below, 2 agg uplinks.
	for pod := range ft.Edge {
		for _, e := range ft.Edge[pod] {
			hosts, aggs := 0, 0
			for p := range ft.Switch(e).Ports {
				switch ft.Peer(e, p).Kind {
				case PeerHost:
					hosts++
				case PeerSwitch:
					aggs++
				}
			}
			if hosts != 2 || aggs != 2 {
				t.Errorf("edge %d: %d hosts, %d uplinks", e, hosts, aggs)
			}
		}
	}
	// Every core switch connects to exactly one agg in every pod.
	for _, c := range ft.Core {
		podsSeen := map[int]int{}
		for p := range ft.Switch(c).Ports {
			peer := ft.Peer(c, p)
			if peer.Kind != PeerSwitch {
				t.Fatalf("core %d port %d unconnected", c, p)
			}
			podsSeen[p]++
			// Port p of a core switch leads to pod p by construction.
			found := false
			for _, agg := range ft.Agg[p] {
				if peer.Node == agg {
					found = true
				}
			}
			if !found {
				t.Errorf("core %d port %d leads to %d, not an agg of pod %d", c, p, peer.Node, p)
			}
		}
		if len(podsSeen) != 4 {
			t.Errorf("core %d reaches %d pods", c, len(podsSeen))
		}
	}
	// Latencies.
	if ft.Peer(ft.Edge[0][0], 0).Latency != sim.Microsecond {
		t.Error("host latency")
	}
	if ft.Peer(ft.Edge[0][0], 2).Latency != 2*sim.Microsecond {
		t.Error("fabric latency")
	}
}

func TestFatTreeK6Counts(t *testing.T) {
	ft, err := NewFatTree(FatTreeConfig{K: 6})
	if err != nil {
		t.Fatal(err)
	}
	if len(ft.Switches) != 45 { // 36 pod + 9 core
		t.Errorf("switches = %d, want 45", len(ft.Switches))
	}
	if len(ft.Hosts) != 54 {
		t.Errorf("hosts = %d, want 54", len(ft.Hosts))
	}
}
