package wire

import (
	"net"
	"testing"
	"time"

	"speedlight/internal/control"
	"speedlight/internal/dataplane"
	"speedlight/internal/packet"
	"speedlight/internal/topology"
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

// bareSwitch builds the testbed as Deploy builds it, but runs none of
// it, and returns the leaf under its first two hosts: the calling
// goroutine is that switch's only driver. Its host ports lead to the
// returned sink socket, which nobody else reads (a full loopback buffer
// drops silently), and nobody reads the sockets behind its fabric ports.
func bareSwitch(t *testing.T) (sn *switchNode, sink *net.UDPConn, src, dst *topology.Host) {
	t.Helper()
	topo := leafSpine(t).Topology
	d := &Deployment{cfg: Config{Topo: topo, MaxID: 256, WrapAround: true}}
	t.Cleanup(d.closeSockets)
	if err := d.build(); err != nil {
		t.Fatal(err)
	}
	src, dst = topo.Hosts[0], topo.Hosts[1] // same leaf: in at src's port, out at dst's
	return d.switches[src.Node], d.sinkConn, src, dst
}

// dataTrain lays n data frames from src to dst back to back, Seq 0..n-1.
func dataTrain(n int, src, dst *topology.Host) []byte {
	var train []byte
	for i := 0; i < n; i++ {
		train = appendData(train, src.Port, &packet.Packet{
			SrcHost: uint32(src.ID), DstHost: uint32(dst.ID), Size: 100, Proto: 6, Seq: uint64(i)})
	}
	return train
}

// readDeliveries reads datagrams off sink until it has seen want
// host-deliver frames, and returns their packets in arrival order and
// the size of each datagram.
func readDeliveries(t *testing.T, sink *net.UDPConn, want int) (pkts []packet.Packet, sizes []int) {
	t.Helper()
	buf := make([]byte, 1<<16)
	sink.SetReadDeadline(time.Now().Add(5 * time.Second))
	for len(pkts) < want {
		n, _, err := sink.ReadFromUDPAddrPort(buf)
		if err != nil {
			t.Fatalf("sink has %d of %d deliveries: %v", len(pkts), want, err)
		}
		sizes = append(sizes, n)
		for frame, rest := next(buf[:n]); frame != nil; frame, rest = next(rest) {
			var p packet.Packet
			if _, err := decodeHostDeliver(frame, &p); err != nil {
				t.Fatalf("sink got a frame that is no delivery: %v", err)
			}
			pkts = append(pkts, p)
		}
	}
	return pkts, sizes
}

// TestHandleDataFrameAllocs pins the switch's burst path: a 16-frame
// train stamped as it is read and through handle — the walk, decode
// into the node's own packet, the step at the stamp, encode into the
// destination's staging buffer — and the Flush that writes the
// answering train allocate nothing.
//
//speedlight:allocgate wire.switchNode.handle wire.switchNode.Forward wire.decodeData wire.frameLen wire.next wire.staging.room wire.staging.emit wire.switchNode.Flush live.Event.Step live.Stamp.Take live.Stamp.Now
func TestHandleDataFrameAllocs(t *testing.T) {
	sn, sink, src, dst := bareSwitch(t)
	train := dataTrain(16, src, dst)
	if n := testing.AllocsPerRun(1000, func() { sn.Take(); sn.handle(train); sn.Flush() }); n != 0 {
		t.Fatalf("a 16-frame train through Take, handle and Flush allocates %v, want 0", n)
	}
	// The frames did take the whole path: the sink holds one train of 16
	// deliveries to dst per run.
	pkts, sizes := readDeliveries(t, sink, 16)
	if len(pkts) != 16 || len(sizes) != 1 {
		t.Fatalf("sink got %d deliveries in %d datagrams, want 16 in 1", len(pkts), len(sizes))
	}
	for i, p := range pkts {
		if p.SrcHost != uint32(src.ID) || p.DstHost != uint32(dst.ID) || p.Seq != uint64(i) {
			t.Fatalf("delivery %d: %+v", i, p)
		}
	}
}

// TestSinkTrainAllocs pins the sink: a 16-frame host-deliver train is
// decoded into packets off the free list and handed to OnDeliver without
// allocating while the list holds packets, and with the list dry costs
// one packet per delivery and nothing else.
//
//speedlight:allocgate wire.Deployment.deliver
func TestSinkTrainAllocs(t *testing.T) {
	var train []byte
	for i := 0; i < 16; i++ {
		train = appendHostDeliver(train, topology.HostID(i%6), &packet.Packet{
			SrcHost: 1, DstHost: uint32(i % 6), Size: 100, Proto: 6, Seq: uint64(i)})
	}
	d := &Deployment{free: make(chan *packet.Packet, freeCap)}
	delivered, bad := 0, 0
	d.cfg.OnDeliver = func(p *packet.Packet, host topology.HostID) {
		if p.Seq != uint64(delivered%16) || uint32(host) != p.DstHost {
			bad++
		}
		delivered++
		d.recycle(p) // hand it back: the list stays primed
	}
	for i := 0; i < 16; i++ {
		d.recycle(new(packet.Packet))
	}
	if n := testing.AllocsPerRun(1000, func() { d.deliver(train) }); n != 0 {
		t.Fatalf("a 16-frame train with a primed free list allocates %v, want 0", n)
	}
	if delivered != 16*1001 || bad != 0 {
		t.Fatalf("%d deliveries (%d wrong), want %d", delivered, bad, 16*1001)
	}

	d.cfg.OnDeliver = func(*packet.Packet, topology.HostID) {} // keeps every packet
	for len(d.free) > 0 {
		<-d.free
	}
	if n := testing.AllocsPerRun(1000, func() { d.deliver(train) }); n != 16 {
		t.Fatalf("a 16-frame train with a dry free list allocates %v, want 16 (one packet per delivery)", n)
	}
}
