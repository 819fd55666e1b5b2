package emunet

import (
	"fmt"
	"testing"

	"speedlight/internal/dataplane"
	"speedlight/internal/packet"
	"speedlight/internal/sim"
	"speedlight/internal/topology"
)

// TestUnknownIDs: switches, hosts and their queues are looked up by
// slot, and an ID with no slot behaves as it did when the tables were
// maps — nil, false, the same error, the same panic.
func TestUnknownIDs(t *testing.T) {
	n := newNet(t, nil)
	badSw := topology.NodeID(len(n.Topo().Switches))
	badHost := topology.HostID(len(n.Topo().Hosts))
	swErr := fmt.Sprintf("emunet: unknown switch %d", badSw)
	hostPanic := fmt.Sprintf("emunet: unknown host %d", badHost)

	if n.Switch(0) == nil || n.Topo().Host(0) == nil {
		t.Fatal("switch 0 or host 0 missing")
	}
	for _, c := range []struct {
		name string
		got  bool
	}{
		{"Switch(-1) == nil", n.Switch(-1) == nil},
		{"Switch(past last) == nil", n.Switch(badSw) == nil},
		{"Topology.Host(past last) == nil", n.Topo().Host(badHost) == nil},
		{"!SwitchIsDown(unknown)", !n.SwitchIsDown(badSw)},
		{"!LinkIsDown(unknown, 0)", !n.LinkIsDown(badSw, 0)},
	} {
		if !c.got {
			t.Errorf("%s is false", c.name)
		}
	}
	for _, c := range []struct {
		name string
		err  error
		want string
	}{
		{"PushConfig", n.PushConfig(badSw), swErr},
		{"SetSwitchDown", n.SetSwitchDown(badSw), swErr},
		{"SetSwitchUp", n.SetSwitchUp(badSw), swErr},
		{"SetLinkDown", n.SetLinkDown(badSw, 0), swErr},
		{"SetLinkUp", n.SetLinkUp(badSw, 0), swErr},
	} {
		if c.err == nil || c.err.Error() != c.want {
			t.Errorf("%s(unknown) = %v, want %q", c.name, c.err, c.want)
		}
	}
	if _, err := n.ScheduleSnapshotSingle(badSw, 0); err == nil {
		t.Error("ScheduleSnapshotSingle(unknown) succeeded")
	}
	for _, c := range []struct {
		name string
		fn   func()
		want string
	}{
		{"Proc", func() { n.Proc(badSw) }, swErr},
		{"HostProc", func() { n.HostProc(badHost) }, hostPanic},
		{"NewPacketFor", func() { n.dpool.Put(n.NewPacketFor(badHost)) }, hostPanic},
		{"InjectFrom", func() { n.InjectFrom(n.gproc, badHost, &packet.Packet{}) }, hostPanic},
	} {
		func() {
			defer func() {
				if r := recover(); r != c.want {
					t.Errorf("%s(unknown) panicked with %v, want %q", c.name, r, c.want)
				}
			}()
			c.fn()
		}()
	}
}

// TestEgressGaugeRegisteredAfterNew: a depth gauge first asked for
// after the network is built still follows its port's queue.
func TestEgressGaugeRegisteredAfterNew(t *testing.T) {
	n := newRatedNet(t, 1e9, nil)
	g := n.Gauge(dataplane.UnitID{Node: 0, Port: 0, Dir: dataplane.Egress})
	for _, h := range n.Topo().Hosts[1:] {
		h := h
		n.Engine().NewTicker(5*sim.Microsecond, func() {
			n.InjectFromHost(h.ID, &packet.Packet{DstHost: 0, Size: 1500, Proto: 6})
		})
	}
	var rose bool
	n.Engine().NewTicker(20*sim.Microsecond, func() {
		if got, want := g.Read(), uint64(n.Switch(0).QueueLen(0)); got != want {
			t.Errorf("gauge reads %d, queue holds %d", got, want)
		}
		rose = rose || g.Read() > 0
	})
	n.RunFor(2 * sim.Millisecond)
	if !rose {
		t.Error("depth gauge never rose during incast")
	}
}
