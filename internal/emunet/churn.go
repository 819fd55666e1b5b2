package emunet

// Runtime fabric churn: switches and links leave and rejoin the
// emulated network while a campaign runs. Every mutator here executes
// in the serialized global domain (or driver context between Run*
// calls) — on the parallel engine that means every worker is parked,
// so touching any switch's state is race-free and the mutation lands
// at one deterministic point in the global total order. That is what
// keeps serial-vs-sharded journals byte-identical through churn.
//
// The teardown contract is leak-freedom: a switch or link leaving the
// fabric must return every pooled packet it strands (egress queues,
// packets on the wire) to a pool. The tests' LeakCheck verifies the
// identity allocated == free after a quiesced drain.
//
// The stale-event hazard: closure-free events (transmit completions,
// CP loop steps) armed before a teardown would otherwise fire against
// flushed queues or a rebooted control plane. Each switch carries a
// generation counter, bumped on every down/up transition and packed
// into the events' integer argument; a mismatch makes the event inert
// (see scheduleTx / cpCall in emunet.go).

import (
	"fmt"

	"speedlight/internal/journal"
	"speedlight/internal/routing"
	"speedlight/internal/topology"
)

// SwitchIsDown reports whether a switch is currently out of the
// fabric. Global-domain or driver context.
func (n *Network) SwitchIsDown(node topology.NodeID) bool {
	es := n.Switch(node)
	return es != nil && es.down
}

// LinkIsDown reports whether the link behind a switch port is
// administratively drained. Global-domain or driver context.
func (n *Network) LinkIsDown(node topology.NodeID, port int) bool {
	es := n.Switch(node)
	return es != nil && port >= 0 && port < len(es.linkDown) && es.linkDown[port]
}

// SetSwitchDown removes a switch from the fabric: its egress queues
// are flushed (every pooled packet returned), its control-plane loop
// is disarmed, and it is unregistered from the observer so snapshots
// begun from now on neither initiate there nor wait for it — the
// switch's units then vanish from the next sealed epoch through
// snapstore's departure-delta path. Snapshots already in flight
// recover via retry and, failing that, exclusion (§6). Idempotent.
//
//speedlight:global-only
func (n *Network) SetSwitchDown(node topology.NodeID) error {
	es := n.Switch(node)
	if es == nil {
		return fmt.Errorf("emunet: unknown switch %d", node)
	}
	if es.down {
		return nil
	}
	n.flushQueues(es)
	es.down = true
	es.gen++
	es.cpBusy = false
	n.Remove(node)
	n.journalChurn(int(node), -1, journal.ChurnSwitchDown)
	return nil
}

// SetSwitchUp returns a previously removed switch to the fabric,
// modeling a reboot: data- and control-plane state is re-provisioned
// from scratch (zeroed registers, re-pushed forwarding config, fresh
// completion gating) and the switch re-registers with the observer.
// Forwarding through the rest of the fabric still routes around it
// until Reroute runs — the reconcile controller does both in one
// convergence pass. Idempotent.
//
//speedlight:global-only
func (n *Network) SetSwitchUp(node topology.NodeID) error {
	es := n.Switch(node)
	if es == nil {
		return fmt.Errorf("emunet: unknown switch %d", node)
	}
	if !es.down {
		return nil
	}
	if err := n.Reprovision(node); err != nil {
		return fmt.Errorf("emunet: re-provisioning switch %d: %w", node, err)
	}
	es.Switch = n.Fabric.Switch(node)
	es.down = false
	es.gen++
	n.journalChurn(int(node), -1, journal.ChurnSwitchUp)
	return nil
}

// SetLinkDown drains the switch-to-switch link behind the given port:
// both endpoints stop accepting the wire, and anything still queued
// toward it is eaten at transmission (deterministically, and returned
// to the packet pool). Only switch-to-switch links can be drained.
// Idempotent.
//
//speedlight:global-only
func (n *Network) SetLinkDown(node topology.NodeID, port int) error {
	return n.setLink(node, port, true)
}

// SetLinkUp re-adds a drained link. Traffic uses it again once
// Reroute recomputes paths over it. Idempotent.
//
//speedlight:global-only
func (n *Network) SetLinkUp(node topology.NodeID, port int) error {
	return n.setLink(node, port, false)
}

func (n *Network) setLink(node topology.NodeID, port int, down bool) error {
	es := n.Switch(node)
	if es == nil {
		return fmt.Errorf("emunet: unknown switch %d", node)
	}
	if port < 0 || port >= len(es.linkDown) {
		return fmt.Errorf("emunet: switch %d has no port %d", node, port)
	}
	peer := n.cfg.Topo.Peer(node, port)
	if peer.Kind != topology.PeerSwitch {
		return fmt.Errorf("emunet: port %d of switch %d is not a fabric link", port, node)
	}
	if es.linkDown[port] == down {
		return nil
	}
	es.linkDown[port] = down
	n.sws[peer.Node].linkDown[peer.Port] = down
	op := journal.ChurnLinkUp
	if down {
		op = journal.ChurnLinkDown
	}
	// One journal event per link, against the canonical endpoint.
	sw, p := node, port
	if peer.Node < node {
		sw, p = peer.Node, peer.Port
	}
	n.journalChurn(int(sw), p, op)
	return nil
}

// PushConfig re-pushes a switch's forwarding configuration: its FIB is
// recomputed over the currently live fabric and its version bumped, as
// a reconciliation controller does when desired config drifts from
// actual. The switch must be up.
//
//speedlight:global-only
func (n *Network) PushConfig(node topology.NodeID) error {
	es := n.Switch(node)
	if es == nil {
		return fmt.Errorf("emunet: unknown switch %d", node)
	}
	if es.down {
		return fmt.Errorf("emunet: switch %d is down", node)
	}
	n.PushFIB(node, n.churnFilter())
	n.journalChurn(int(node), -1, journal.ChurnReconfig)
	return nil
}

// Reroute recomputes every switch's forwarding table around the
// current down set, in place: down switches and drained links carry no
// paths, and destinations severed by a partition lose their entries
// (the data plane then drops toward them, which is what a partitioned
// fabric does). Completion gating derives from the refreshed
// utilized-pair map at the next control-plane provisioning.
//
//speedlight:global-only
func (n *Network) Reroute() {
	n.RouteAround(n.churnFilter())
	n.journalChurn(journal.ObserverNode, -1, journal.ChurnReroute)
}

// churnFilter adapts the live down set to the routing filter.
func (n *Network) churnFilter() routing.Filter {
	return routing.Filter{
		SwitchDown: func(node topology.NodeID) bool { return n.sws[node].down },
		LinkDown:   func(node topology.NodeID, port int) bool { return n.sws[node].linkDown[port] },
	}
}

// flushQueues empties every egress queue of a departing switch,
// returning each pooled packet to the switch's free list. The
// transmit events already armed against those queues are neutralized
// by the generation bump that follows.
func (n *Network) flushQueues(es *EmuSwitch) {
	for _, q := range es.queues {
		for cos := range q.perCoS {
			f := &q.perCoS[cos]
			for f.len() > 0 {
				es.ppool.Put(f.pop())
				n.churnDrops.Add(1)
			}
		}
		q.queued, q.txScheduled = 0, false
		q.setDepth()
	}
}

// journalChurn appends a churn event to the observer's ring at the
// current global time.
func (n *Network) journalChurn(sw, port int, op uint64) {
	if n.cfg.Journal == nil {
		return
	}
	n.cfg.Journal.Observer().Append(journal.Churn(int64(n.gproc.Now()), sw, port, op))
}
