package wire

import (
	"bytes"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"speedlight/internal/control"
	"speedlight/internal/dataplane"
	"speedlight/internal/epochtrace"
	"speedlight/internal/journal"
	"speedlight/internal/packet"
	"speedlight/internal/topology"
)

// sampleFrames is one well-formed frame of every shape the codec
// writes: each type, the packet-carrying ones with and without the
// snapshot header.
func sampleFrames() map[string][]byte {
	plain := &packet.Packet{SrcHost: 1, DstHost: 2, SrcPort: 1000, DstPort: 80, Proto: 6, Size: 1500, Seq: 99, CoS: 1}
	snap := *plain
	snap.HasSnap, snap.Snap = true, packet.SnapshotHeader{Type: packet.TypeData, ID: 7, Channel: 3}
	return map[string][]byte{
		"data":              appendData(nil, 3, plain),
		"data+snap":         appendData(nil, 3, &snap),
		"hostDeliver":       appendHostDeliver(nil, 12, plain),
		"hostDeliver+snap":  appendHostDeliver(nil, 12, &snap),
		"initiate":          appendInitiate(nil, 41),
		"poll":              pollMsg[:],
		"result":            appendResult(nil, control.Result{Unit: dataplane.UnitID{Node: 2, Port: 5}, SnapshotID: 17, Value: 9}),
		"result (egress)":   appendResult(nil, control.Result{Unit: dataplane.UnitID{Node: 2, Port: 5, Dir: dataplane.Egress}, Consistent: true}),
		"data (max fields)": appendData(nil, 0xffff, &packet.Packet{SrcHost: ^uint32(0), DstHost: ^uint32(0), Size: ^uint32(0), Seq: ^uint64(0), CoS: 15}),
	}
}

// TestFrameLen: a frame's length follows from its own first bytes, for
// every shape; every truncation of it is short, whatever follows it is
// not counted, and an unknown type byte is refused.
func TestFrameLen(t *testing.T) {
	for name, frame := range sampleFrames() {
		if n, err := frameLen(frame); err != nil || n != len(frame) {
			t.Errorf("%s: frameLen = %d, %v; the encoder wrote %d bytes", name, n, err, len(frame))
		}
		for cut := 0; cut < len(frame); cut++ {
			if n, err := frameLen(frame[:cut]); err != ErrMsgShort {
				t.Errorf("%s cut to %d of %d bytes: frameLen = %d, %v; want ErrMsgShort", name, cut, len(frame), n, err)
			}
		}
		longer := append(append([]byte(nil), frame...), 0xEE, msgPoll)
		if n, err := frameLen(longer); err != nil || n != len(frame) {
			t.Errorf("%s with a tail: frameLen = %d, %v; want %d", name, n, err, len(frame))
		}
	}
	for _, typ := range []byte{0x00, 0x06, 0x7f, 0xA6, 0xff} {
		if n, err := frameLen([]byte{typ, 1, 2, 3}); err != ErrMsgUnknown {
			t.Errorf("type 0x%02x: frameLen = %d, %v; want ErrMsgUnknown", typ, n, err)
		}
	}
}

// TestTrainRoundTrip: frames of every shape laid back to back come out
// of the walker one by one, byte for byte and in order; a head the
// walker refuses ends the walk with the frames before it handed out.
func TestTrainRoundTrip(t *testing.T) {
	frames := sampleFrames()
	order := []string{"result", "data+snap", "poll", "hostDeliver", "initiate", "data", "poll", "hostDeliver+snap", "result (egress)", "data (max fields)"}
	var train []byte
	for _, name := range order {
		train = append(train, frames[name]...)
	}
	walk := func(data []byte) (names []string) {
		i := 0
		for frame, rest := next(data); frame != nil; frame, rest = next(rest) {
			if i >= len(order) || !bytes.Equal(frame, frames[order[i]]) {
				t.Fatalf("frame %d of the walk is not %q: % x", i, order[min(i, len(order)-1)], frame)
			}
			names = append(names, order[i])
			i++
		}
		return names
	}
	if got := walk(train); len(got) != len(order) {
		t.Errorf("walked %d of %d frames: %v", len(got), len(order), got)
	}
	// Truncated inside the sixth frame.
	cut := 0
	for _, name := range order[:5] {
		cut += len(frames[name])
	}
	if got := walk(train[:cut+7]); len(got) != 5 {
		t.Errorf("a train cut inside its sixth frame yields %d frames, want 5", len(got))
	}
}

// TestStagingNeverExceedsDatagram: a burst far larger than a datagram
// leaves the switch as trains no longer than maxDatagram, every frame
// present, in order — and as trains, not one datagram per frame.
func TestStagingNeverExceedsDatagram(t *testing.T) {
	sn, sink, src, dst := bareSwitch(t)
	const frames = 200
	sn.handle(dataTrain(frames, src, dst))
	sn.Flush()
	pkts, sizes := readDeliveries(t, sink, frames)
	if len(pkts) != frames {
		t.Fatalf("%d deliveries, want %d", len(pkts), frames)
	}
	for i, p := range pkts {
		if p.Seq != uint64(i) {
			t.Fatalf("delivery %d carries Seq %d: order lost across trains", i, p.Seq)
		}
	}
	for _, n := range sizes {
		if n > maxDatagram {
			t.Errorf("a %d-byte datagram left the switch, maxDatagram is %d", n, maxDatagram)
		}
	}
	if want := frames*(5+packet.PacketBaseLen)/maxDatagram + 1; len(sizes) < want || len(sizes) > 2*want {
		t.Errorf("%d frames left in %d datagrams, want about %d", frames, len(sizes), want)
	}
	for _, to := range sn.outs {
		if len(to.buf) != 0 {
			t.Errorf("%d bytes still staged for %v after Flush", len(to.buf), to.addr)
		}
	}
}

// TestGarbageTailDeliversTheFramesBeforeIt: through a switch, a
// datagram of three good frames and a garbage tail delivers the three.
func TestGarbageTailDeliversTheFramesBeforeIt(t *testing.T) {
	sn, sink, src, dst := bareSwitch(t)
	sn.handle(append(dataTrain(3, src, dst), 0xEE, msgData, 0x00))
	sn.Flush()
	if pkts, _ := readDeliveries(t, sink, 3); len(pkts) != 3 || pkts[2].Seq != 2 {
		t.Fatalf("deliveries: %+v", pkts)
	}
}

// TestEpochTracePartitionOnWireJournal: trains move where a burst's
// journal stamps fall; the journal must still tell one story. Every
// epoch of a journaled deployment under load rebuilds into a trace whose
// seven critical stages sum to its completion latency exactly, channel
// state off and on (live's sibling: TestTelemetryEndToEnd).
func TestEpochTracePartitionOnWireJournal(t *testing.T) {
	for _, cs := range []bool{false, true} {
		t.Run(fmt.Sprintf("cs=%v", cs), func(t *testing.T) {
			var delivered atomic.Uint64
			d, err := Deploy(Config{
				Topo: leafSpine(t).Topology, ChannelState: cs, RetryEvery: 20 * time.Millisecond,
				Journal:   journal.NewSet(0),
				OnDeliver: func(*packet.Packet, topology.HostID) { delivered.Add(1) },
			})
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()

			// Load: a closed loop over every host pair three apart (all
			// cross-leaf), 64 packets in the network.
			stop, loaded := make(chan struct{}), make(chan struct{})
			go func() {
				defer close(loaded)
				for sent := uint64(0); ; {
					select {
					case <-stop:
						return
					default:
					}
					if sent-delivered.Load() >= 64 {
						time.Sleep(20 * time.Microsecond)
						continue
					}
					d.Inject(topology.HostID(sent%6), &packet.Packet{
						DstHost: uint32((sent + 3) % 6), SrcPort: uint16(sent), DstPort: 80, Proto: 6, Size: 300})
					sent++
				}
			}()
			const rounds = 6
			for i := 0; i < rounds; i++ {
				_, done, err := d.TakeSnapshot()
				if err != nil {
					t.Fatal(err)
				}
				select {
				case <-done:
				case <-time.After(10 * time.Second):
					t.Fatalf("snapshot %d never completed", i)
				}
			}
			close(stop)
			<-loaded
			d.Close()

			traces := epochtrace.Build(d.Journal().Events())
			if len(traces) != rounds {
				t.Fatalf("epoch traces = %d, want %d", len(traces), rounds)
			}
			for _, tr := range traces {
				if !tr.Consistent || tr.EndNs <= tr.BeginNs || len(tr.Switches) != 4 {
					t.Errorf("epoch %d: consistent=%v span [%d, %d], %d switch traces",
						tr.ID, tr.Consistent, tr.BeginNs, tr.EndNs, len(tr.Switches))
				}
				if tr.CriticalSumNs() != tr.DurationNs() {
					t.Errorf("epoch %d: critical path sums to %d ns, completion latency is %d ns",
						tr.ID, tr.CriticalSumNs(), tr.DurationNs())
				}
			}
			if good, bad, open := d.Audit().Counts(); good != rounds || bad != 0 || open != 0 {
				t.Errorf("audit of the journal: %d consistent, %d inconsistent, %d incomplete; want %d, 0, 0", good, bad, open, rounds)
			}
		})
	}
}
