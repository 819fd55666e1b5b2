package wire

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"speedlight/internal/packet"
	"speedlight/internal/topology"
)

// bareDeployment builds the testbed as Deploy builds it and starts
// nothing: the calling goroutine plays the host-transmit goroutine
// (d.tx.transmit), and nobody reads the switches' sockets but the test.
func bareDeployment(t *testing.T) *Deployment {
	t.Helper()
	d := &Deployment{cfg: Config{Topo: leafSpine(t).Topology}}
	t.Cleanup(d.closeSockets)
	if err := d.build(); err != nil {
		t.Fatal(err)
	}
	return d
}

// stallObserver makes f the observer host's stall until the test ends.
// Set it before Deploy, and Close what was deployed before the test
// ends: the deployment's observer host reads it.
func stallObserver(t *testing.T, f func()) {
	old := testHookObserverStall
	testHookObserverStall = f
	t.Cleanup(func() { testHookObserverStall = old })
}

// readData reads datagrams off conn until it has want data frames, and
// returns their packets in arrival order and the frames per datagram.
func readData(t *testing.T, conn *net.UDPConn, want int) (pkts []packet.Packet, trains []int) {
	t.Helper()
	buf := make([]byte, 1<<16)
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	for len(pkts) < want {
		n, _, err := conn.ReadFromUDPAddrPort(buf)
		if err != nil {
			t.Fatalf("the switch socket has %d of %d data frames: %v", len(pkts), want, err)
		}
		if n > maxDatagram {
			t.Fatalf("a %d-byte datagram, maxDatagram is %d", n, maxDatagram)
		}
		frames := 0
		for frame, rest := next(buf[:n]); frame != nil; frame, rest = next(rest) {
			var p packet.Packet
			if _, err := decodeData(frame, &p); err != nil {
				t.Fatalf("a frame that is no data frame: %v", err)
			}
			pkts = append(pkts, p)
			frames++
		}
		trains = append(trains, frames)
	}
	return pkts, trains
}

// TestHostTransmitAllocs pins the hosts' side in steady state: Inject —
// the encode into its switch's queue and the recycle — and transmit,
// which takes the queue and writes it out as one train, allocate
// nothing.
//
//speedlight:allocgate wire.switchNode.Inject wire.hostTx.put wire.hostTx.transmit wire.staging.room wire.staging.emit
func TestHostTransmitAllocs(t *testing.T) {
	d := bareDeployment(t)
	h := d.cfg.Topo.Hosts[0]
	pkt := &packet.Packet{DstHost: 4, SrcPort: 7, DstPort: 80, Proto: 6, Size: 100}
	if n := testing.AllocsPerRun(1000, func() {
		for i := 0; i < 4; i++ {
			pkt.Seq = uint64(i)
			if err := d.Inject(h.ID, pkt); err != nil {
				t.Fatal(err)
			}
			pkt = <-d.free
		}
		d.tx.transmit()
	}); n != 0 {
		t.Fatalf("four Injects and a transmit allocate %v, want 0", n)
	}
	// The frames did go out: the first datagram at the host's switch is
	// one train of the four, in order.
	if pkts, trains := readData(t, d.switches[h.Node].conn, 4); len(trains) != 1 || pkts[3].Seq != 3 || pkts[0].SrcHost != uint32(h.ID) {
		t.Fatalf("the switch got %d frames in %d datagrams: %+v", len(pkts), len(trains), pkts)
	}
}

// TestFullHostQueueWaits: an Inject that finds its switch's queue full
// waits — it neither drops nor returns — until a transmit takes the
// queue; then every packet reaches the switch, in order.
func TestFullHostQueueWaits(t *testing.T) {
	d := bareDeployment(t)
	h := d.cfg.Topo.Hosts[0]
	frameLen := len(appendData(nil, h.Port, &packet.Packet{}))
	full := (hostQueueCap + frameLen - 1) / frameLen // frames that fill the queue
	total := full + 50
	var injected atomic.Int64
	errs := make(chan error, 1)
	go func() {
		for i := 0; i < total; i++ {
			if err := d.Inject(h.ID, &packet.Packet{DstHost: 4, SrcPort: 7, Proto: 6, Size: 100, Seq: uint64(i)}); err != nil {
				errs <- err
				return
			}
			injected.Add(1)
		}
		errs <- nil
	}()
	for deadline := time.Now().Add(5 * time.Second); injected.Load() < int64(full); {
		if time.Now().After(deadline) {
			t.Fatalf("%d of the %d packets that fill the queue injected", injected.Load(), full)
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond)
	if got := injected.Load(); got != int64(full) {
		t.Fatalf("%d packets injected into a queue that holds %d", got, full)
	}
	select {
	case err := <-errs:
		t.Fatalf("Inject returned at a full queue: %v", err)
	default:
	}
	d.tx.transmit() // takes the full queue: the waiting Inject goes on
	select {
	case err := <-errs:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("Inject still waits after the queue was taken: %d of %d injected", injected.Load(), total)
	}
	d.tx.transmit()
	pkts, _ := readData(t, d.switches[h.Node].conn, total)
	for i, p := range pkts {
		if p.Seq != uint64(i) {
			t.Fatalf("frame %d carries Seq %d: order lost", i, p.Seq)
		}
	}
}

// TestInjectAfterCloseKeepsPacket: after Close, Inject refuses, and the
// packet stays the caller's: untouched and not on the free list.
func TestInjectAfterCloseKeepsPacket(t *testing.T) {
	d, err := Deploy(Config{Topo: leafSpine(t).Topology})
	if err != nil {
		t.Fatal(err)
	}
	d.Close()
	p := &packet.Packet{DstHost: 4, SrcPort: 7, DstPort: 80, Proto: 6, Size: 100, Seq: 9}
	want := *p
	want.SrcHost = 0 // Inject stamps the source host
	if err := d.Inject(0, p); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("Inject after Close: %v, want net.ErrClosed", err)
	}
	if *p != want || len(d.free) != 0 {
		t.Errorf("the refused packet is %+v with %d on the free list, want %+v and none", *p, len(d.free), want)
	}
}

// TestConcurrentInjectKeepsEachHostsOrder: one goroutine per host, each
// a closed loop of one flow to a host on the other leaf; every packet
// is delivered, and each host's in the order it injected them.
func TestConcurrentInjectKeepsEachHostsOrder(t *testing.T) {
	const perHost, window = 1500, 32
	topo := leafSpine(t).Topology
	hosts := len(topo.Hosts)
	delivered := make([]atomic.Uint64, hosts) // by source host
	var bad atomic.Pointer[string]
	d, err := Deploy(Config{
		Topo: topo,
		OnDeliver: func(p *packet.Packet, _ topology.HostID) { // one sink goroutine
			if want := delivered[p.SrcHost].Load(); p.Seq != want {
				msg := fmt.Sprintf("host %d: delivery %d carries Seq %d", p.SrcHost, want, p.Seq)
				bad.CompareAndSwap(nil, &msg)
			}
			delivered[p.SrcHost].Add(1)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	deadline := time.Now().Add(20 * time.Second)
	var wg sync.WaitGroup
	for h := 0; h < hosts; h++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seq := uint64(0); seq < perHost; {
				if seq-delivered[h].Load() >= window {
					if time.Now().After(deadline) {
						return
					}
					time.Sleep(50 * time.Microsecond)
					continue
				}
				p := &packet.Packet{DstHost: uint32((h + hosts/2) % hosts), SrcPort: uint16(1000 + h), DstPort: 80, Proto: 6, Size: 100, Seq: seq}
				if err := d.Inject(topology.HostID(h), p); err != nil {
					t.Error(err)
					return
				}
				seq++
			}
		}()
	}
	wg.Wait()
	for h := range delivered {
		for delivered[h].Load() < perHost && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if got := delivered[h].Load(); got != perHost {
			t.Errorf("host %d: %d of %d delivered", h, got, perHost)
		}
	}
	if msg := bad.Load(); msg != nil {
		t.Errorf("order lost: %s", *msg)
	}
}

// TestObserverStallExcludesNothing stalls the observer host for three
// exclusion periods (ExcludeAfter is 50 ms at the default RetryEvery)
// at the first datagram of a snapshot's results, with traffic on every
// channel. Results it has not read yet are no silence: every snapshot
// completes with all 28 results and nothing excluded, channel state off
// and on. (With the recovery timers on a goroutine of their own, the
// stalled snapshot excluded every switch whose results waited.)
func TestObserverStallExcludesNothing(t *testing.T) {
	const stall = 3 * 50 * time.Millisecond
	for _, cs := range []bool{false, true} {
		t.Run(fmt.Sprintf("cs=%v", cs), func(t *testing.T) {
			topo := leafSpine(t).Topology
			var armed atomic.Bool
			var stalls atomic.Int32
			stallObserver(t, func() {
				if armed.CompareAndSwap(true, false) {
					stalls.Add(1)
					time.Sleep(stall)
				}
			})
			d, err := Deploy(Config{Topo: topo, ChannelState: cs})
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			stop := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() { // every host to every other, once a millisecond
				defer wg.Done()
				for i := 0; ; i++ {
					for _, src := range topo.Hosts {
						for _, dst := range topo.Hosts {
							if src != dst {
								d.Inject(src.ID, &packet.Packet{DstHost: uint32(dst.ID), SrcPort: uint16(i), DstPort: 80, Proto: 6, Size: 200})
							}
						}
					}
					select {
					case <-stop:
						return
					case <-time.After(time.Millisecond):
					}
				}
			}()
			defer func() { close(stop); wg.Wait() }()
			for i := 0; i < 3; i++ {
				armed.Store(i == 1)
				_, done, err := d.TakeSnapshot()
				if err != nil {
					t.Fatal(err)
				}
				select {
				case g := <-done:
					if len(g.Excluded) != 0 || len(g.Results) != 28 {
						t.Errorf("snapshot %d: excluded=%v results=%d", g.ID, g.Excluded, len(g.Results))
					}
				case <-time.After(10 * time.Second):
					t.Fatalf("snapshot %d never finalized", i)
				}
			}
			if got := stalls.Load(); got != 1 {
				t.Errorf("the observer host stalled %d times, want 1", got)
			}
		})
	}
}
