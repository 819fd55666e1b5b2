package reconcile

import (
	"math/rand"
	"testing"

	"speedlight/internal/sim"
	"speedlight/internal/topology"
)

// fakeFabric is an in-memory Fabric for controller unit tests.
type fakeFabric struct {
	topo     *topology.Topology
	swDown   map[topology.NodeID]bool
	lnDown   map[Endpoint]bool
	pushes   []topology.NodeID
	reroutes int
}

func newFakeFabric(t *testing.T) *fakeFabric {
	t.Helper()
	ls, err := topology.NewLeafSpine(topology.LeafSpineConfig{
		Leaves: 2, Spines: 2, HostsPerLeaf: 1,
		HostLinkLatency:   sim.Microsecond,
		FabricLinkLatency: sim.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	return &fakeFabric{
		topo:   ls.Topology,
		swDown: make(map[topology.NodeID]bool),
		lnDown: make(map[Endpoint]bool),
	}
}

func (f *fakeFabric) Topo() *topology.Topology                 { return f.topo }
func (f *fakeFabric) SwitchIsDown(n topology.NodeID) bool      { return f.swDown[n] }
func (f *fakeFabric) LinkIsDown(n topology.NodeID, p int) bool { return f.lnDown[f.canon(n, p)] }
func (f *fakeFabric) SetSwitchDown(n topology.NodeID) error    { f.swDown[n] = true; return nil }
func (f *fakeFabric) SetSwitchUp(n topology.NodeID) error      { f.swDown[n] = false; return nil }
func (f *fakeFabric) SetLinkDown(n topology.NodeID, p int) error {
	f.lnDown[f.canon(n, p)] = true
	return nil
}
func (f *fakeFabric) SetLinkUp(n topology.NodeID, p int) error {
	f.lnDown[f.canon(n, p)] = false
	return nil
}
func (f *fakeFabric) PushConfig(n topology.NodeID) error { f.pushes = append(f.pushes, n); return nil }
func (f *fakeFabric) Reroute()                           { f.reroutes++ }

func (f *fakeFabric) canon(n topology.NodeID, p int) Endpoint {
	if peer := f.topo.Peer(n, p); peer.Kind == topology.PeerSwitch && peer.Node < n {
		return Endpoint{Node: peer.Node, Port: peer.Port}
	}
	return Endpoint{Node: n, Port: p}
}

func TestReconcileConvergesAndIsIdempotent(t *testing.T) {
	f := newFakeFabric(t)
	c, err := New(Config{Fabric: f})
	if err != nil {
		t.Fatal(err)
	}
	// Fresh controller over a fresh fabric: nothing to do.
	if ops := c.Reconcile(); ops != 0 {
		t.Fatalf("converged controller applied %d ops, want 0", ops)
	}

	links := c.Links()
	if len(links) != 4 {
		t.Fatalf("2x2 leaf-spine has %d links, want 4", len(links))
	}
	c.desired.SetSwitchDown(f.topo.Switches[0].ID, true)
	c.desired.SetLinkDown(links[1], true)

	ops := c.Reconcile()
	if ops != 3 { // switch down + link down + reroute
		t.Fatalf("first pass applied %d ops, want 3 (got log %v)", ops, c.Log())
	}
	if !f.SwitchIsDown(f.topo.Switches[0].ID) {
		t.Error("switch not taken down")
	}
	if !f.LinkIsDown(links[1].A.Node, links[1].A.Port) {
		t.Error("link not drained")
	}
	if f.reroutes != 1 {
		t.Errorf("reroutes = %d, want 1", f.reroutes)
	}
	// Idempotency: actual now matches desired.
	if ops := c.Reconcile(); ops != 0 {
		t.Fatalf("second pass applied %d ops, want 0", ops)
	}

	// Restore everything; downs and ups both converge.
	c.desired.SetSwitchDown(f.topo.Switches[0].ID, false)
	c.desired.SetLinkDown(links[1], false)
	if ops := c.Reconcile(); ops != 3 {
		t.Fatalf("restore pass applied %d ops, want 3", ops)
	}
	if f.SwitchIsDown(f.topo.Switches[0].ID) || f.LinkIsDown(links[1].A.Node, links[1].A.Port) {
		t.Error("restore did not converge")
	}
}

func TestReconcileOrdersTeardownBeforeRestore(t *testing.T) {
	f := newFakeFabric(t)
	c, err := New(Config{Fabric: f})
	if err != nil {
		t.Fatal(err)
	}
	// One switch is already down and should come up; another should go
	// down. The pass must apply the teardown first (capacity leaves
	// before it returns, never double-counted).
	down := f.topo.Switches[1].ID
	f.swDown[down] = true
	c2, err := New(Config{Fabric: f})
	if err != nil {
		t.Fatal(err)
	}
	_ = c // first controller unused beyond topology sanity
	c2.desired.SetSwitchDown(down, false)
	c2.desired.SetSwitchDown(f.topo.Switches[0].ID, true)
	c2.Reconcile()
	log := c2.Log()
	if len(log) < 2 {
		t.Fatalf("log too short: %v", log)
	}
	if log[0].Kind != OpSwitchDown || log[1].Kind != OpSwitchUp {
		t.Fatalf("pass order = %v %v, want switch_down then switch_up", log[0].Kind, log[1].Kind)
	}
}

func TestReconcileConfigPushWaitsForSwitchUp(t *testing.T) {
	f := newFakeFabric(t)
	c, err := New(Config{Fabric: f})
	if err != nil {
		t.Fatal(err)
	}
	node := f.topo.Switches[0].ID
	c.desired.SetSwitchDown(node, true)
	c.Reconcile()
	c.desired.BumpConfig(node)
	c.Reconcile()
	if len(f.pushes) != 0 {
		t.Fatalf("config pushed to a down switch: %v", f.pushes)
	}
	c.desired.SetSwitchDown(node, false)
	c.Reconcile()
	if len(f.pushes) != 1 || f.pushes[0] != node {
		t.Fatalf("pushes = %v, want [%d] once the switch returned", f.pushes, node)
	}
	// The generation was consumed; no repeat push.
	c.Reconcile()
	if len(f.pushes) != 1 {
		t.Fatalf("config push repeated: %v", f.pushes)
	}
}

func TestNewAdoptsActualState(t *testing.T) {
	f := newFakeFabric(t)
	down := f.topo.Switches[2].ID
	f.swDown[down] = true
	c, err := New(Config{Fabric: f})
	if err != nil {
		t.Fatal(err)
	}
	if ops := c.Reconcile(); ops != 0 {
		t.Fatalf("adopting controller applied %d ops, want 0", ops)
	}
	if !c.desired.SwitchDown(down) {
		t.Error("actual down state not adopted into desired")
	}
}

func TestScenarioBuildersDeterministic(t *testing.T) {
	f := newFakeFabric(t)
	links := Links(f.topo)
	nodes := []topology.NodeID{f.topo.Switches[0].ID, f.topo.Switches[1].ID}

	ru := RollingUpgrade(nodes, sim.Millisecond, 2*sim.Millisecond, 5*sim.Millisecond)
	if len(ru.Steps) != 4 {
		t.Errorf("rolling upgrade of 2 switches has %d steps, want 4", len(ru.Steps))
	}
	ph := PartitionAndHeal(links[:2], sim.Millisecond, 3*sim.Millisecond)
	if len(ph.Steps) != 2 {
		t.Errorf("partition-and-heal has %d steps, want 2", len(ph.Steps))
	}
	pr := ProvisioningRamp(nodes, sim.Millisecond, 2*sim.Millisecond)
	if len(pr.Steps) != 3 {
		t.Errorf("provisioning ramp has %d steps, want 3", len(pr.Steps))
	}
	// Two storms from identically seeded sources are identical.
	mk := func() *Scenario {
		r := rand.New(rand.NewSource(7))
		return LinkFlapStorm(links, r, sim.Millisecond, 6, sim.Millisecond, sim.Millisecond)
	}
	a, b := mk(), mk()
	if len(a.Steps) != len(b.Steps) || len(a.Steps) != 12 {
		t.Fatalf("storm steps %d vs %d, want 12", len(a.Steps), len(b.Steps))
	}
	for i := range a.Steps {
		if a.Steps[i].At != b.Steps[i].At || a.Steps[i].Label != b.Steps[i].Label {
			t.Fatalf("storm step %d differs: %v vs %v", i, a.Steps[i], b.Steps[i])
		}
	}
}
