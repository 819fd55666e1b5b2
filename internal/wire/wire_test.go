package wire

import (
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"speedlight/internal/control"
	"speedlight/internal/dataplane"
	"speedlight/internal/journal"
	"speedlight/internal/packet"
	"speedlight/internal/sim"
	"speedlight/internal/topology"
)

func leafSpine(t *testing.T) *topology.LeafSpine {
	t.Helper()
	ls, err := topology.NewLeafSpine(topology.LeafSpineConfig{
		Leaves: 2, Spines: 2, HostsPerLeaf: 3,
		HostLinkLatency:   sim.Microsecond,
		FabricLinkLatency: sim.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ls
}

func TestMessageCodecs(t *testing.T) {
	// Data.
	p := &packet.Packet{SrcHost: 1, DstHost: 2, Size: 100, HasSnap: true,
		Snap: packet.SnapshotHeader{Type: packet.TypeData, ID: 7, Channel: 3}}
	data := appendData(nil, 12, p)
	if n, err := frameLen(data); err != nil || n != len(data) || data[0] != msgData {
		t.Fatalf("data frame: type 0x%02x, frameLen %d (%v) of %d", data[0], n, err, len(data))
	}
	got := &packet.Packet{Seq: 9, CoS: 3} // a reused packet carries nothing over
	port, err := decodeData(data, got)
	if err != nil || port != 12 || *got != *p {
		t.Fatalf("data round trip: %v %d %+v", err, port, got)
	}

	// Host deliver.
	hd := appendHostDeliver(nil, 42, p)
	got2 := &packet.Packet{Seq: 9, CoS: 3}
	host, err := decodeHostDeliver(hd, got2)
	if err != nil || host != 42 || *got2 != *p {
		t.Fatalf("host round trip: %v %d", err, host)
	}

	// Initiate.
	id, err := decodeInitiate(appendInitiate(nil, 987654321))
	if err != nil || id != 987654321 {
		t.Fatalf("initiate round trip: %v %d", err, id)
	}

	// Result.
	res := control.Result{
		Unit:       dataplane.UnitID{Node: 3, Port: 9, Dir: dataplane.Egress},
		SnapshotID: 55, Value: 1 << 40, Consistent: true, ReadAt: 123456789,
	}
	got3, err := decodeResult(appendResult(nil, res))
	if err != nil || got3 != res {
		t.Fatalf("result round trip: %v %+v", err, got3)
	}

	// Poll.
	if n, err := frameLen(pollMsg[:]); err != nil || n != 1 || pollMsg[0] != msgPoll {
		t.Fatal("poll frame")
	}
}

func TestResultCodecProperty(t *testing.T) {
	f := func(node uint16, port uint8, egress bool, id, value uint64, consistent bool, at int64) bool {
		dir := dataplane.Ingress
		if egress {
			dir = dataplane.Egress
		}
		res := control.Result{
			Unit:       dataplane.UnitID{Node: topology.NodeID(node), Port: int(port), Dir: dir},
			SnapshotID: packet.SeqID(id), Value: value, Consistent: consistent,
			ReadAt: sim.Time(at & (1<<62 - 1)), // keep non-negative: protocol time
		}
		got, err := decodeResult(appendResult(nil, res))
		return err == nil && got == res
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMessageCodecErrors(t *testing.T) {
	if _, err := frameLen(nil); err != ErrMsgShort {
		t.Errorf("empty message: %v", err)
	}
	if _, err := frameLen([]byte{0xEE}); err != ErrMsgUnknown {
		t.Errorf("unknown type: %v", err)
	}
	if _, err := decodeData([]byte{msgData, 0}, &packet.Packet{}); err == nil {
		t.Error("short data accepted")
	}
	if _, err := decodeHostDeliver([]byte{msgHostDeliver}, &packet.Packet{}); err == nil {
		t.Error("short host deliver accepted")
	}
	if _, err := decodeInitiate([]byte{msgInitiate}); err == nil {
		t.Error("short initiate accepted")
	}
	if _, err := decodeResult([]byte{msgResult}); err == nil {
		t.Error("short result accepted")
	}
}

func TestDeployValidation(t *testing.T) {
	if _, err := Deploy(Config{}); err == nil {
		t.Error("nil topology accepted")
	}
}

func TestUDPDelivery(t *testing.T) {
	ls := leafSpine(t)
	var delivered atomic.Int64
	d, err := Deploy(Config{
		Topo:      ls.Topology,
		OnDeliver: func(p *packet.Packet, h topology.HostID) { delivered.Add(1) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	for i := 0; i < 50; i++ {
		if err := d.Inject(0, &packet.Packet{
			DstHost: 3, SrcPort: uint16(i), DstPort: 80, Proto: 6, Size: 200,
		}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for delivered.Load() < 50 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := delivered.Load(); got != 50 {
		t.Errorf("delivered %d of 50 over UDP", got)
	}
}

func TestUDPSnapshot(t *testing.T) {
	ls := leafSpine(t)
	var delivered atomic.Int64
	d, err := Deploy(Config{
		Topo:      ls.Topology,
		OnDeliver: func(*packet.Packet, topology.HostID) { delivered.Add(1) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	const N = 40
	for i := 0; i < N; i++ {
		d.Inject(1, &packet.Packet{DstHost: 2, SrcPort: 7, DstPort: 80, Proto: 6, Size: 100})
	}
	deadline := time.Now().Add(5 * time.Second)
	for delivered.Load() < N && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if delivered.Load() != N {
		t.Fatalf("traffic lost: %d/%d", delivered.Load(), N)
	}

	id, done, err := d.TakeSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	select {
	case g := <-done:
		if g.ID != id || !g.Consistent {
			t.Errorf("snapshot id=%d consistent=%v", g.ID, g.Consistent)
		}
		if len(g.Results) != 28 {
			t.Errorf("results = %d", len(g.Results))
		}
		// Host 1 and 2 share leaf 0: the quiesced path counts match.
		in := g.Results[dataplane.UnitID{Node: 0, Port: 1, Dir: dataplane.Ingress}]
		out := g.Results[dataplane.UnitID{Node: 0, Port: 2, Dir: dataplane.Egress}]
		if in.Value != N || out.Value != N {
			t.Errorf("path counts: in=%d out=%d want %d", in.Value, out.Value, N)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("snapshot never completed over UDP")
	}
}

func TestUDPSnapshotSequence(t *testing.T) {
	ls := leafSpine(t)
	d, err := Deploy(Config{Topo: ls.Topology, RetryEvery: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	// Continuous concurrent traffic during the sequence.
	stop := make(chan struct{})
	go func() {
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			d.Inject(0, &packet.Packet{DstHost: 4, SrcPort: uint16(i), Proto: 6, Size: 300})
			time.Sleep(50 * time.Microsecond)
		}
	}()
	defer close(stop)

	var last uint64
	for i := 0; i < 8; i++ {
		_, done, err := d.TakeSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		select {
		case g := <-done:
			v := g.Results[dataplane.UnitID{Node: 0, Port: 0, Dir: dataplane.Ingress}].Value
			if v < last {
				t.Errorf("counter regressed across snapshots: %d -> %d", last, v)
			}
			last = v
		case <-time.After(10 * time.Second):
			t.Fatalf("snapshot %d timed out", i)
		}
	}
}

func TestUDPCloseIdempotent(t *testing.T) {
	ls := leafSpine(t)
	d, err := Deploy(Config{Topo: ls.Topology})
	if err != nil {
		t.Fatal(err)
	}
	d.Close()
	d.Close() // must not panic or hang
	if _, _, err := d.TakeSnapshot(); err == nil {
		t.Error("TakeSnapshot after Close should fail")
	}
}

func TestUDPChannelStateSnapshot(t *testing.T) {
	ls := leafSpine(t)
	var delivered atomic.Int64
	d, err := Deploy(Config{
		Topo:         ls.Topology,
		ChannelState: true,
		RetryEvery:   20 * time.Millisecond,
		OnDeliver:    func(*packet.Packet, topology.HostID) { delivered.Add(1) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	stop := make(chan struct{})
	go func() {
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			d.Inject(topology.HostID(i%6), &packet.Packet{
				DstHost: uint32((i + 3) % 6), SrcPort: uint16(i), DstPort: 80, Proto: 6, Size: 300,
			})
			time.Sleep(20 * time.Microsecond)
		}
	}()
	defer close(stop)

	_, done, err := d.TakeSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	select {
	case g := <-done:
		if len(g.Results) != 28 {
			t.Errorf("results = %d", len(g.Results))
		}
		if len(g.Excluded) != 0 {
			t.Errorf("excluded: %v", g.Excluded)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("channel-state snapshot over UDP never completed")
	}
}

// TestUDPRetryRecoversLostInitiation loses one leaf's first initiation —
// the snapshot is begun and every other switch is told to initiate it,
// as TakeSnapshot does — and the observer host retries that switch, and
// it alone, once; the snapshot completes with nothing excluded.
func TestUDPRetryRecoversLostInitiation(t *testing.T) {
	ls := leafSpine(t)
	lost := ls.Leaves[1]
	jr := journal.NewSet(0)
	d, err := Deploy(Config{Topo: ls.Topology, Journal: jr})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	id, done, err := d.Begin(d.Now())
	if err != nil {
		t.Fatal(err)
	}
	for _, sn := range d.switches {
		if sn.spec.ID != lost {
			sn.Control(id, false, false)
		}
	}
	select {
	case g := <-done:
		if len(g.Excluded) != 0 || len(g.Results) != 28 || !g.Consistent {
			t.Errorf("snapshot: excluded=%v results=%d consistent=%v", g.Excluded, len(g.Results), g.Consistent)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("snapshot timed out")
	}
	d.Close() // the rings are quiet from here on
	var retried []int
	for _, ev := range jr.Events() {
		if ev.Kind == journal.KindObsRetry {
			retried = append(retried, ev.Switch)
		}
	}
	if len(retried) != 1 || retried[0] != int(lost) {
		t.Errorf("retries of switches %v, want one, of switch %d", retried, lost)
	}
}
