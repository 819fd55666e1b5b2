// Package reconcile is the fabric reconciliation controller: a
// desired-vs-actual control loop over the emulated network's runtime
// membership, modeled on the watcher → diff → reconcile architecture
// of ONOS-style device provisioners. A Spec declares which switches
// and links should be out of service; the controller watches the
// fabric on a fixed period, diffs the declaration against actual
// state, and applies the missing operations — switch teardown and
// re-provisioning, link drain and re-add, forwarding reconvergence —
// through the Fabric interface.
//
// Everything the controller does runs as deterministic events in the
// simulation's serialized global domain, so runtime topology mutation
// preserves the serial-vs-sharded byte-identical artifact contract.
// Scenarios (see scenario.go) script seeded churn schedules against a
// controller, and Classify (classify.go) grades every churn event's
// snapshot outcome from the journal and the audit report.
package reconcile

import (
	"fmt"
	"sort"

	"speedlight/internal/sim"
	"speedlight/internal/topology"
)

// Fabric is the actual-state surface the controller reconciles
// against. *emunet.Network implements it.
type Fabric interface {
	// Topo returns the static wiring; churn toggles elements of it in
	// and out of service but never rewires it.
	Topo() *topology.Topology

	SwitchIsDown(node topology.NodeID) bool
	LinkIsDown(node topology.NodeID, port int) bool

	SetSwitchDown(node topology.NodeID) error
	SetSwitchUp(node topology.NodeID) error
	SetLinkDown(node topology.NodeID, port int) error
	SetLinkUp(node topology.NodeID, port int) error

	// PushConfig re-pushes one switch's forwarding config (the
	// reconciler's answer to config-generation drift).
	PushConfig(node topology.NodeID) error
	// Reroute reconverges forwarding around the current down set.
	Reroute()
}

// Endpoint names one side of a fabric link.
type Endpoint struct {
	Node topology.NodeID
	Port int
}

// Link is a switch-to-switch link, keyed by its canonical endpoint:
// the (node, port) pair with the smaller node ID (ports of one link
// never share a node in these topologies).
type Link struct {
	A, B Endpoint // A is canonical: A.Node < B.Node
}

// Links enumerates a topology's switch-to-switch links in canonical
// deterministic order.
func Links(t *topology.Topology) []Link {
	var out []Link
	for _, sw := range t.Switches {
		for p, peer := range sw.Ports {
			if peer.Kind != topology.PeerSwitch || peer.Node < sw.ID {
				continue // the lower-ID endpoint owns the link
			}
			out = append(out, Link{
				A: Endpoint{Node: sw.ID, Port: p},
				B: Endpoint{Node: peer.Node, Port: peer.Port},
			})
		}
	}
	return out
}

// Spec is the desired fabric state: which elements should be out of
// service, and each switch's desired config generation. The zero Spec
// wants everything up.
type Spec struct {
	switchDown map[topology.NodeID]bool
	linkDown   map[Endpoint]bool
	configGen  map[topology.NodeID]uint64
}

// SetSwitchDown declares a switch's desired service state.
func (s *Spec) SetSwitchDown(node topology.NodeID, down bool) {
	if s.switchDown == nil {
		s.switchDown = make(map[topology.NodeID]bool)
	}
	s.switchDown[node] = down
}

// SetLinkDown declares a link's desired service state, addressed by
// either endpoint.
func (s *Spec) SetLinkDown(l Link, down bool) {
	if s.linkDown == nil {
		s.linkDown = make(map[Endpoint]bool)
	}
	s.linkDown[l.A] = down
}

// BumpConfig asks for one switch's forwarding config to be re-pushed
// on the next convergence pass.
func (s *Spec) BumpConfig(node topology.NodeID) {
	if s.configGen == nil {
		s.configGen = make(map[topology.NodeID]uint64)
	}
	s.configGen[node]++
}

// SwitchDown reports the desired state of a switch.
func (s *Spec) SwitchDown(node topology.NodeID) bool { return s.switchDown[node] }

// LinkDown reports the desired state of a link.
func (s *Spec) LinkDown(l Link) bool { return s.linkDown[l.A] }

// Op is one reconciliation operation the controller applied.
type Op struct {
	At   sim.Time
	Kind OpKind
	Node topology.NodeID // switch ops and link ops (canonical endpoint)
	Port int             // link ops; -1 otherwise
}

// OpKind enumerates reconciliation operations.
type OpKind int

// Reconciliation operation kinds, in the order one convergence pass
// applies them.
const (
	OpSwitchDown OpKind = iota
	OpLinkDown
	OpLinkUp
	OpSwitchUp
	OpPushConfig
	OpReroute
)

// String returns the op kind's name.
func (k OpKind) String() string {
	switch k {
	case OpSwitchDown:
		return "switch_down"
	case OpLinkDown:
		return "link_down"
	case OpLinkUp:
		return "link_up"
	case OpSwitchUp:
		return "switch_up"
	case OpPushConfig:
		return "push_config"
	case OpReroute:
		return "reroute"
	default:
		return fmt.Sprintf("op(%d)", int(k))
	}
}

// Config parameterizes a controller.
type Config struct {
	// Fabric is the actual state being reconciled. Required.
	Fabric Fabric
	// Proc schedules the watcher; it must be the engine's global-domain
	// handle so reconciliation serializes against every shard. Required
	// for Start; Reconcile alone works without it.
	Proc sim.Proc
	// Interval is the watch period. Zero defaults to 500 µs.
	Interval sim.Duration
}

// Controller drives desired state into the fabric.
type Controller struct {
	cfg     Config
	desired Spec
	links   []Link
	// pushedGen tracks the config generation last pushed per switch.
	pushedGen map[topology.NodeID]uint64
	log       []Op
	ticker    *sim.Ticker
}

// New builds a controller. The fabric is adopted as-is: actual state
// becomes desired state, so a freshly built controller converges with
// zero operations.
func New(cfg Config) (*Controller, error) {
	if cfg.Fabric == nil {
		return nil, fmt.Errorf("reconcile: nil fabric")
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 500 * sim.Microsecond
	}
	c := &Controller{
		cfg:       cfg,
		links:     Links(cfg.Fabric.Topo()),
		pushedGen: make(map[topology.NodeID]uint64),
	}
	for _, sw := range cfg.Fabric.Topo().Switches {
		if cfg.Fabric.SwitchIsDown(sw.ID) {
			c.desired.SetSwitchDown(sw.ID, true)
		}
	}
	for _, l := range c.links {
		if cfg.Fabric.LinkIsDown(l.A.Node, l.A.Port) {
			c.desired.SetLinkDown(l, true)
		}
	}
	return c, nil
}

// Links returns the fabric's links in canonical order.
func (c *Controller) Links() []Link { return c.links }

// Start arms the periodic watcher, which runs for the life of the
// engine.
func (c *Controller) Start() {
	if c.ticker != nil {
		return
	}
	c.ticker = c.cfg.Proc.NewTicker(c.cfg.Interval, func() { c.Reconcile() })
}

// Log returns every operation applied so far, in application order.
func (c *Controller) Log() []Op { return c.log }

// Reconcile runs one convergence pass: diff desired against actual in
// deterministic order and apply what differs — teardowns first
// (switches, then link drains), then restorations (link re-adds, then
// switch re-provisioning), then config pushes, then one forwarding
// reconvergence if anything moved. Returns the number of operations
// applied. Global-domain or driver context only.
//
//speedlight:global-only
func (c *Controller) Reconcile() int {
	f := c.cfg.Fabric
	now := sim.Time(0)
	if c.cfg.Proc != nil {
		now = c.cfg.Proc.Now()
	}
	nodes := c.sortedNodes()
	moved := 0

	apply := func(kind OpKind, node topology.NodeID, port int, err error) {
		if err != nil {
			// Diff-driven ops target elements proven to exist; an error
			// here is a programming bug, not a runtime condition.
			panic(fmt.Sprintf("reconcile: %s %d/%d: %v", kind, node, port, err))
		}
		c.log = append(c.log, Op{At: now, Kind: kind, Node: node, Port: port})
		moved++
	}

	for _, node := range nodes {
		if c.desired.SwitchDown(node) && !f.SwitchIsDown(node) {
			apply(OpSwitchDown, node, -1, f.SetSwitchDown(node))
		}
	}
	for _, l := range c.links {
		if c.desired.LinkDown(l) && !f.LinkIsDown(l.A.Node, l.A.Port) {
			apply(OpLinkDown, l.A.Node, l.A.Port, f.SetLinkDown(l.A.Node, l.A.Port))
		}
	}
	for _, l := range c.links {
		if !c.desired.LinkDown(l) && f.LinkIsDown(l.A.Node, l.A.Port) {
			apply(OpLinkUp, l.A.Node, l.A.Port, f.SetLinkUp(l.A.Node, l.A.Port))
		}
	}
	for _, node := range nodes {
		if !c.desired.SwitchDown(node) && f.SwitchIsDown(node) {
			apply(OpSwitchUp, node, -1, f.SetSwitchUp(node))
		}
	}
	membership := moved

	// Config drift: re-push where the desired generation moved past
	// the last pushed one. Down switches wait until they return.
	for _, node := range nodes {
		want := c.desired.configGen[node]
		if want > c.pushedGen[node] && !f.SwitchIsDown(node) {
			apply(OpPushConfig, node, -1, f.PushConfig(node))
			c.pushedGen[node] = want
		}
	}

	// Forwarding reconverges at the end of every pass that applied at
	// least one membership change.
	if membership > 0 {
		f.Reroute()
		c.log = append(c.log, Op{At: now, Kind: OpReroute, Node: -1, Port: -1})
		moved++
	}
	return moved
}

// sortedNodes returns every switch ID in ascending order.
func (c *Controller) sortedNodes() []topology.NodeID {
	t := c.cfg.Fabric.Topo()
	nodes := make([]topology.NodeID, 0, len(t.Switches))
	for _, sw := range t.Switches {
		nodes = append(nodes, sw.ID)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	return nodes
}
