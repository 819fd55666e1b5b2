package wire

import (
	"net"
	"testing"
	"time"

	"speedlight/internal/control"
	"speedlight/internal/dataplane"
	"speedlight/internal/packet"
	"speedlight/internal/routing"
)

// TestAppendCodecAllocs pins the wire hot path: encoding into a reused
// scratch buffer allocates nothing. This is the contract that lets a
// switch node's egress loop run allocation-free per forwarded packet.
//
//speedlight:allocgate wire.appendData wire.appendHostDeliver wire.appendResult packet.Packet.AppendBinary
func TestAppendCodecAllocs(t *testing.T) {
	p := &packet.Packet{SrcHost: 1, DstHost: 2, Size: 100, HasSnap: true,
		Snap: packet.SnapshotHeader{Type: packet.TypeData, ID: 7, Channel: 3}}
	res := control.Result{
		Unit:       dataplane.UnitID{Node: 3, Port: 9, Dir: dataplane.Egress},
		SnapshotID: 55, Value: 1 << 40, Consistent: true, ReadAt: 123456789,
	}
	scratch := make([]byte, 0, maxMsgLen)

	if n := testing.AllocsPerRun(1000, func() {
		scratch = appendData(scratch[:0], 12, p)
	}); n != 0 {
		t.Fatalf("appendData allocates %v per message, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		scratch = appendHostDeliver(scratch[:0], 42, p)
	}); n != 0 {
		t.Fatalf("appendHostDeliver allocates %v per message, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		scratch = appendInitiate(scratch[:0], 987654321)
	}); n != 0 {
		t.Fatalf("appendInitiate allocates %v per message, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		scratch = appendResult(scratch[:0], res)
	}); n != 0 {
		t.Fatalf("appendResult allocates %v per message, want 0", n)
	}
}

// TestHandleDataFrameAllocs pins the switch receive path: a data frame
// through handle — decode into the node's own packet, the step, encode
// into the node's scratch, sendto — allocates nothing. The switch is
// built as Deploy builds it but never run, so the test goroutine is its
// only driver; its one wired port leads to a socket nobody reads (a full
// loopback buffer drops silently).
//
//speedlight:allocgate wire.switchNode.handle wire.switchNode.Forward wire.decodeData
func TestHandleDataFrameAllocs(t *testing.T) {
	topo := leafSpine(t).Topology
	fibs, err := routing.ComputeFIBs(topo)
	if err != nil {
		t.Fatal(err)
	}
	bind := func() *net.UDPConn {
		c, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	d := &Deployment{cfg: Config{Topo: topo, MaxID: 256, WrapAround: true}, started: time.Now(),
		obsConn: bind(), sinkConn: bind()}
	src, dst := topo.Hosts[0], topo.Hosts[1] // same leaf: in at src's port, out at dst's
	spec := topo.Switches[src.Node]
	sn, err := d.buildSwitch(spec, fibs[spec.ID], routing.UtilizedPairs(topo, fibs)[spec.ID])
	if err != nil {
		t.Fatal(err)
	}
	defer sn.conn.Close()
	sn.addrs[dst.Port] = d.sinkConn.LocalAddr().(*net.UDPAddr)

	frame := appendData(nil, src.Port, &packet.Packet{SrcHost: uint32(src.ID), DstHost: uint32(dst.ID), Size: 100, Proto: 6})
	if n := testing.AllocsPerRun(1000, func() { sn.handle(frame) }); n != 0 {
		t.Fatalf("a data frame through handle allocates %v, want 0", n)
	}
	// The frames did take the whole path: the sink holds deliveries to dst.
	buf := make([]byte, maxDatagram)
	d.sinkConn.SetReadDeadline(time.Now().Add(2 * time.Second))
	n, _, err := d.sinkConn.ReadFromUDP(buf)
	if err != nil {
		t.Fatalf("nothing reached the sink: %v", err)
	}
	if host, pkt, err := decodeHostDeliver(buf[:n]); err != nil || host != dst.ID || pkt.SrcHost != uint32(src.ID) {
		t.Fatalf("sink got host %d, packet %+v, err %v", host, pkt, err)
	}
}
