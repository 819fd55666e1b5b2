package node_test

import (
	"fmt"
	"reflect"
	"testing"

	"speedlight/internal/control"
	"speedlight/internal/dataplane"
	"speedlight/internal/emunet"
	"speedlight/internal/live"
	"speedlight/internal/node"
	"speedlight/internal/routing"
	"speedlight/internal/sim"
	"speedlight/internal/topology"
	"speedlight/internal/wire"
)

// gates lists, for every unit of a switch, the channels its control
// plane gates completion on, ascending.
func gates(sw *node.Switch) map[dataplane.UnitID][]int {
	out := make(map[dataplane.UnitID][]int)
	for _, id := range sw.DP.UnitIDs() {
		chans := []int{}
		for ch := 0; ch < sw.DP.Unit(id).Config().NumChannels; ch++ {
			if sw.CP.Gates(id, ch) {
				chans = append(chans, ch)
			}
		}
		out[id] = chans
	}
	return out
}

// TestGatesFromUtilizedPairs: the Section 6 gating rule, as node.New
// hands it to every control plane. A switch-facing ingress unit gates on
// its external class channels, a host-facing one on nothing, an egress
// unit on its own port plus exactly the ingress ports some forwarding
// path sends to it — below the top tier never another uplink — and the
// three runtimes build the same gates.
func TestGatesFromUtilizedPairs(t *testing.T) {
	ls, err := topology.NewLeafSpine(topology.LeafSpineConfig{
		Leaves: 2, Spines: 2, HostsPerLeaf: 3,
		HostLinkLatency: sim.Microsecond, FabricLinkLatency: sim.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ft, err := topology.NewFatTree(topology.FatTreeConfig{
		K: 4, HostLinkLatency: sim.Microsecond, FabricLinkLatency: sim.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		topo    *topology.Topology
		uplinks func(topology.NodeID) []int
	}{
		{"leaf-spine 2x2x3", ls.Topology, func(n topology.NodeID) []int {
			if ls.IsLeaf(n) {
				return ls.UplinkPorts(n)
			}
			return nil
		}},
		{"fat-tree k=4", ft.Topology, func(n topology.NodeID) []int {
			if int(n) < ft.K*ft.K { // edge and aggregation: ports [k/2, k) lead up
				return []int{2, 3}
			}
			return nil
		}},
	} {
		fibs, err := routing.ComputeFIBs(tc.topo)
		if err != nil {
			t.Fatal(err)
		}
		used := routing.UtilizedPairs(tc.topo, fibs)
		build := func(t *testing.T, spec *topology.Switch, numCoS int) *node.Switch {
			sw, err := node.New(node.Config{
				Spec: spec,
				DP: dataplane.Config{
					FIB: fibs[spec.ID], MaxID: 16, WrapAround: true, ChannelState: true, NumCoS: numCoS,
				},
				Utilized: used[spec.ID],
				OnResult: func(control.Result) {},
			}, nil)
			if err != nil {
				t.Fatal(err)
			}
			return sw
		}

		for _, numCoS := range []int{1, 3} {
			t.Run(fmt.Sprintf("%s/cos=%d", tc.name, numCoS), func(t *testing.T) {
				classes := func(port int) (chans []int) {
					for c := 0; c < numCoS; c++ {
						chans = append(chans, port*numCoS+c)
					}
					return chans
				}
				for _, spec := range tc.topo.Switches {
					sw := build(t, spec, numCoS)
					got := gates(sw)
					for p, peer := range spec.Ports {
						want := []int{}
						if peer.Kind == topology.PeerSwitch {
							want = classes(0)
						}
						id := dataplane.UnitID{Node: spec.ID, Port: p, Dir: dataplane.Ingress}
						if !reflect.DeepEqual(got[id], want) {
							t.Errorf("%v (peer kind %v) gates on %v, want %v", id, peer.Kind, got[id], want)
						}

						want = nil
						for in := range spec.Ports {
							if in == p || used[spec.ID].Has(in, p) {
								want = append(want, classes(in)...)
							}
						}
						id.Dir = dataplane.Egress
						if !reflect.DeepEqual(got[id], want) {
							t.Errorf("%v gates on %v, want its own port and the ports routed to it: %v", id, got[id], want)
						}
					}
					for _, up := range tc.uplinks(spec.ID) {
						id := dataplane.UnitID{Node: spec.ID, Port: up, Dir: dataplane.Egress}
						for _, other := range tc.uplinks(spec.ID) {
							if other != up && sw.CP.Gates(id, classes(other)[0]) {
								t.Errorf("%v gates on uplink %d: no route turns around below the top tier", id, other)
							}
						}
					}
				}
			})
		}

		t.Run(tc.name+"/runtimes", func(t *testing.T) {
			emu, err := emunet.New(emunet.Config{Topo: tc.topo, Seed: 1, MaxID: 16, WrapAround: true, ChannelState: true})
			if err != nil {
				t.Fatal(err)
			}
			lv, err := live.New(live.Config{Topo: tc.topo, MaxID: 16, WrapAround: true, ChannelState: true})
			if err != nil {
				t.Fatal(err)
			}
			wr, err := wire.Deploy(wire.Config{Topo: tc.topo, MaxID: 16, WrapAround: true, ChannelState: true})
			if err != nil {
				t.Fatal(err)
			}
			defer wr.Close()
			for _, spec := range tc.topo.Switches {
				want := gates(build(t, spec, 1))
				for _, rt := range []struct {
					name string
					sw   *node.Switch
				}{{"emunet", emu.Switch(spec.ID).Switch}, {"live", lv.Switch(spec.ID)}, {"wire", wr.Switch(spec.ID)}} {
					if got := gates(rt.sw); !reflect.DeepEqual(got, want) {
						t.Errorf("%s switch %d gates on\n%v, want\n%v", rt.name, spec.ID, got, want)
					}
				}
			}
		})
	}
}
