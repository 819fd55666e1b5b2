package live

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"speedlight/internal/core"
	"speedlight/internal/journal"
	"speedlight/internal/packet"
	"speedlight/internal/telemetry"
	"speedlight/internal/topology"
)

// deadline bounds every wait below: a lost wake-up fails the test
// instead of hanging it.
const deadline = 20 * time.Second

// within fails the test unless c delivers before the deadline.
func within[T any](t *testing.T, c <-chan T, what string) (v T) {
	t.Helper()
	select {
	case v = <-c:
	case <-time.After(deadline):
		t.Fatalf("%s: nothing after %v", what, deadline)
	}
	return v
}

// eventually polls cond until it holds or the deadline passes.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for end := time.Now().Add(deadline); !cond(); time.Sleep(100 * time.Microsecond) {
		if time.Now().After(end) {
			t.Fatalf("%s: not after %v", what, deadline)
		}
	}
}

// pkt is a data event from producer p carrying sequence number seq.
func pkt(p int, seq uint64) Event {
	return Event{Kind: EvPacket, Port: p, ID: packet.SeqID(seq)}
}

// consume is liveSwitch.Burst's way with a mailbox — take a burst, park
// on wake only after an empty take — until it has seen total events.
func consume(m *mailbox, total int, each func(Event)) <-chan bool {
	done := make(chan bool, 1)
	go func() {
		for seen := 0; seen < total; {
			burst := m.take()
			if len(burst) == 0 {
				select {
				case <-m.wake:
				case <-time.After(deadline):
					done <- false
					return
				}
			}
			for _, ev := range burst {
				each(ev)
			}
			seen += len(burst)
		}
		done <- true
	}()
	return done
}

// TestMailboxFIFOPerProducer: whatever the interleaving of eight
// producers, the consumer sees each one's events in the order put.
func TestMailboxFIFOPerProducer(t *testing.T) {
	const producers, each = 8, 5000
	m := newMailbox()
	var next [producers]uint64
	var disorder atomic.Int64
	done := consume(m, producers*each, func(ev Event) {
		if uint64(ev.ID) != next[ev.Port] {
			disorder.Add(1)
		}
		next[ev.Port]++
	})
	for p := 0; p < producers; p++ {
		go func(p int) {
			for seq := uint64(0); seq < each; {
				if m.put([]Event{pkt(p, seq)}) == 0 {
					seq++
				} else {
					runtime.Gosched() // full: the consumer is behind
				}
			}
		}(p)
	}
	if !within(t, done, "consumer") {
		t.Fatal("consumer parked with events still to come: lost wake-up")
	}
	if d := disorder.Load(); d != 0 {
		t.Errorf("%d events out of their producer's order", d)
	}
}

// TestMailboxNoLostWakeup hammers the one race the wake token exists
// for: a put landing between the consumer's empty take and its park. A
// lone producer that yields after every put keeps the consumer at that
// edge for 100 k events; it must see them all.
func TestMailboxNoLostWakeup(t *testing.T) {
	const total = 100_000
	m := newMailbox()
	var sum uint64
	done := consume(m, total, func(ev Event) { sum += uint64(ev.ID) })
	go func() {
		for seq := uint64(1); seq <= total; seq++ {
			for m.put([]Event{pkt(0, seq)}) > 0 {
				runtime.Gosched()
			}
			if seq%3 == 0 {
				runtime.Gosched()
			}
		}
	}()
	if !within(t, done, "consumer") {
		t.Fatal("consumer parked with events still to come: lost wake-up")
	}
	if want := uint64(total) * (total + 1) / 2; sum != want {
		t.Errorf("events summed to %d, want %d", sum, want)
	}
}

// TestMailboxBound: of a train of inboxDepth+100 packets the first
// inboxDepth are admitted and the tail refused, control events are
// admitted on top of a full mailbox, and take returns the lot in order.
func TestMailboxBound(t *testing.T) {
	m := newMailbox()
	train := make([]Event, inboxDepth+100)
	for i := range train {
		train[i] = pkt(0, uint64(i))
	}
	if refused := m.put(train); len(m.q) != inboxDepth || refused != 100 {
		t.Fatalf("train of %d: depth %d, %d refused; want %d, 100", len(train), len(m.q), refused, inboxDepth)
	}
	if refused := m.put([]Event{{Kind: EvInitiate, ID: 7}, {Kind: EvPoll}}); len(m.q) != inboxDepth+2 || refused != 0 {
		t.Errorf("initiation and poll at a full mailbox: depth %d, %d refused; want %d, 0", len(m.q), refused, inboxDepth+2)
	}
	burst := m.take()
	if len(burst) != inboxDepth+2 {
		t.Fatalf("took %d events, want %d", len(burst), inboxDepth+2)
	}
	for i, ev := range burst[:inboxDepth] {
		if ev.Kind != EvPacket || int(ev.ID) != i {
			t.Fatalf("event %d is %+v", i, ev)
		}
	}
	if burst[inboxDepth].Kind != EvInitiate || burst[inboxDepth+1].Kind != EvPoll {
		t.Error("control events out of order")
	}
	if refused := m.put(train[:1]); len(m.q) != 1 || refused != 0 {
		t.Error("no room after take")
	}
}

// uplinked builds the testbed's network, never started, so nothing
// drains, and returns a leaf, one of its uplinks and the spine behind it.
func uplinked(t *testing.T, cfg Config) (n *Network, leaf *liveSwitch, uplink int, spine *liveSwitch) {
	t.Helper()
	ls := leafSpine(t)
	cfg.Topo = ls.Topology
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	leaf = n.sws[ls.Leaves[0]]
	uplink = ls.UplinkPorts(leaf.spec.ID)[0]
	return n, leaf, uplink, n.sws[leaf.spec.Ports[uplink].Node]
}

// TestForwardDropsAndCountsAtFullMailbox: Forward stages, and the one
// Flush after the burst puts the train; its tail refused by a full link
// buffer is the inbox-drop counter, and the high-water gauge is the
// bound.
func TestForwardDropsAndCountsAtFullMailbox(t *testing.T) {
	n, leaf, uplink, spine := uplinked(t, Config{Registry: telemetry.NewRegistry()})
	for i := 0; i < inboxDepth+100; i++ {
		leaf.Forward(uplink, &packet.Packet{Seq: uint64(i)})
	}
	if got := len(spine.inbox.q); got != 0 {
		t.Fatalf("the spine's mailbox holds %d before Flush, want 0", got)
	}
	leaf.Flush()
	if got := n.tel.inboxDrops.Value(); got != 100 {
		t.Errorf("inbox drops = %d, want 100", got)
	}
	if got := n.tel.inboxHighWater.Value(); got != inboxDepth {
		t.Errorf("inbox high water = %d, want %d", got, inboxDepth)
	}
	burst := spine.inbox.take()
	if len(burst) != inboxDepth || burst[inboxDepth-1].Pkt.Seq != inboxDepth-1 {
		t.Errorf("the spine's mailbox holds %d, want the train's first %d", len(burst), inboxDepth)
	}
	if got := len(leaf.ports[uplink].evs); got != 0 {
		t.Errorf("%d events still staged after Flush", got)
	}
}

// TestBurstRunsAtOneStamp: a burst is stamped once, when it is taken,
// and every step of it runs at that stamp. k packets, each carrying the
// next snapshot ID, are queued at a spine whose goroutine never started,
// and one Burst stepped by hand journals at least one record per packet,
// all at one instant; the next burst, taken later, at a later one.
func TestBurstRunsAtOneStamp(t *testing.T) {
	const k = 16
	n, leaf, uplink, spine := uplinked(t, Config{Journal: journal.NewSet(0)})
	n.started = time.Now() // the clock runs; no goroutine does
	home := n.cfg.Topo.Peer(leaf.spec.ID, 0).Host
	stamps := func(ids ...packet.SeqID) (records int, at map[int64]bool) {
		t.Helper()
		ring := n.Journal().For(int(spine.spec.ID))
		seen := ring.Appended()
		for _, id := range ids {
			leaf.Forward(uplink, &packet.Packet{DstHost: uint32(home), Size: 100, HasSnap: true, Snap: packet.SnapshotHeader{ID: core.Wrap(id, 256, false)}})
		}
		leaf.Flush()
		if !spine.Burst() {
			t.Fatal("Burst reported shutdown")
		}
		at = map[int64]bool{}
		for _, ev := range ring.Events()[seen:] {
			at[ev.AtNs] = true
			if ev.Kind == journal.KindRecord {
				records++
			}
		}
		return records, at
	}
	ids := make([]packet.SeqID, k)
	for i := range ids {
		ids[i] = packet.SeqID(i + 1)
	}
	records, first := stamps(ids...)
	if records < k || len(first) != 1 {
		t.Fatalf("one burst of %d packets journaled %d records at %d instants, want at least %d at one", k, records, len(first), k)
	}
	time.Sleep(time.Millisecond)
	records, next := stamps(k + 1)
	if records == 0 || len(next) != 1 {
		t.Fatalf("the next burst journaled %d records at %d instants, want some at one", records, len(next))
	}
	for a := range first {
		for b := range next {
			if b <= a {
				t.Errorf("the next burst is stamped %d ns, the first %d ns", b, a)
			}
		}
	}
}

// TestTrainTailDroppedBehindControlEvents: a train that lands on a
// mailbox whose control events already stand above the packet bound
// loses its packets, and the control events keep their place.
func TestTrainTailDroppedBehindControlEvents(t *testing.T) {
	n, leaf, uplink, spine := uplinked(t, Config{Registry: telemetry.NewRegistry()})
	full := make([]Event, inboxDepth)
	for i := range full {
		full[i] = pkt(0, uint64(i))
	}
	spine.inbox.put(full)
	spine.Control(7, false, true)
	for i := 0; i < 10; i++ {
		leaf.Forward(uplink, &packet.Packet{})
	}
	leaf.Flush()
	if got := n.tel.inboxDrops.Value(); got != 10 {
		t.Errorf("inbox drops = %d, want the train's 10", got)
	}
	burst := spine.inbox.take()
	if len(burst) != inboxDepth+2 {
		t.Fatalf("the spine's mailbox holds %d, want %d", len(burst), inboxDepth+2)
	}
	if ev := burst[inboxDepth]; ev.Kind != EvInitiate || ev.ID != 7 || burst[inboxDepth+1].Kind != EvPoll {
		t.Errorf("the mailbox ends %+v, %+v; want the initiation and the poll", ev, burst[inboxDepth+1])
	}
}

// fillFromHost injects packets from host 0 until its leaf's mailbox is
// full, then starts hosts more Injects, which must block; it returns
// the channel their results arrive on.
func fillFromHost(t *testing.T, n *Network, hosts int) <-chan error {
	t.Helper()
	for i := 0; i < inboxDepth; i++ {
		if err := n.Inject(0, &packet.Packet{DstHost: 1}); err != nil {
			t.Fatal(err)
		}
	}
	errs := make(chan error, hosts)
	for i := 0; i < hosts; i++ {
		go func() { errs <- n.Inject(0, &packet.Packet{DstHost: 1}) }()
	}
	// That they block is a negative: the wait can only miss a bug, never
	// report one that is not there.
	select {
	case err := <-errs:
		t.Fatalf("Inject into a full mailbox returned (%v) instead of waiting", err)
	case <-time.After(20 * time.Millisecond):
	}
	return errs
}

// TestBlockedInjectReleasedByTake: one take of the full mailbox lets
// every waiting host in, not only the first.
func TestBlockedInjectReleasedByTake(t *testing.T) {
	n, err := New(Config{Topo: leafSpine(t).Topology})
	if err != nil {
		t.Fatal(err)
	}
	const hosts = 3
	errs := fillFromHost(t, n, hosts)
	inbox := n.sws[n.cfg.Topo.Hosts[0].Node].inbox
	if got := len(inbox.take()); got != inboxDepth {
		t.Fatalf("took %d, want %d", got, inboxDepth)
	}
	for i := 0; i < hosts; i++ {
		if err := within(t, errs, "blocked Inject after take"); err != nil {
			t.Errorf("released Inject: %v", err)
		}
	}
	if got := len(inbox.take()); got != hosts {
		t.Errorf("the released hosts queued %d packets, want %d", got, hosts)
	}
}

// TestBlockedInjectReleasedByStop: Stop releases waiting hosts with an
// error, and returns although the mailbox is full.
func TestBlockedInjectReleasedByStop(t *testing.T) {
	n, err := New(Config{Topo: leafSpine(t).Topology})
	if err != nil {
		t.Fatal(err)
	}
	errs := fillFromHost(t, n, 2)
	n.Stop()
	for i := 0; i < 2; i++ {
		if err := within(t, errs, "blocked Inject after Stop"); err == nil {
			t.Error("Inject released by Stop reported success")
		}
	}
}

// wedged starts a network whose deliveries all block until release is
// called, and wedges host 0's leaf in one: from then on that switch's
// mailbox only fills. The test's end releases and stops it, so a failed
// assertion is a failure and not a hang.
func wedged(t *testing.T, cfg Config) (n *Network, release func()) {
	t.Helper()
	gate, entered := make(chan struct{}), make(chan struct{}, 1)
	var once sync.Once
	release = func() { once.Do(func() { close(gate) }) }
	cfg.Topo = leafSpine(t).Topology
	cfg.OnDeliver = func(*packet.Packet, topology.HostID) {
		select {
		case entered <- struct{}{}:
		default:
		}
		<-gate
	}
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n.Start()
	t.Cleanup(func() { release(); n.Stop() })
	if err := n.Inject(0, &packet.Packet{DstHost: 1}); err != nil {
		t.Fatal(err)
	}
	within(t, entered, "first delivery")
	return n, release
}

// TestStopWithNonEmptyMailbox: a switch looks at stop after every burst,
// so Stop returns with events still queued behind the one in progress.
func TestStopWithNonEmptyMailbox(t *testing.T) {
	n, release := wedged(t, Config{})
	for i := 0; i < 1000; i++ {
		if err := n.Inject(0, &packet.Packet{DstHost: 1}); err != nil {
			t.Fatal(err)
		}
	}
	stopped := make(chan struct{})
	go func() { n.Stop(); close(stopped) }()
	<-n.stop
	release()
	within(t, stopped, "Stop")
	if got := len(n.sws[n.cfg.Topo.Hosts[0].Node].inbox.take()); got != 1000 {
		t.Errorf("mailbox holds %d events after Stop, want the 1000 queued behind the wedged one", got)
	}
}

// TestRetryAdmittedAtFullMailbox is the inbox-drop retry hole: the
// observer asks for a retry once per snapshot, so a retry refused by a
// full inbox was lost for good (and counted as two dropped packets).
// Control events are admitted whatever the depth: with a switch wedged
// and its mailbox full of packets, the initiation, the retry's
// re-initiation and its poll all queue behind them, nothing is dropped,
// and the snapshot completes once the switch moves again.
func TestRetryAdmittedAtFullMailbox(t *testing.T) {
	reg := telemetry.NewRegistry()
	n, release := wedged(t, Config{RetryEvery: 5 * time.Millisecond, Registry: reg})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the last of these waits for room
		defer wg.Done()
		for i := 0; i < inboxDepth+1; i++ {
			n.Inject(0, &packet.Packet{DstHost: 1})
		}
	}()
	eventually(t, "mailbox full", func() bool { return n.tel.inboxHighWater.Value() >= inboxDepth })

	_, done, err := n.TakeSnapshot(0)
	if err != nil {
		t.Fatal(err)
	}
	eventually(t, "initiation, re-initiation and poll queued on top of the full mailbox",
		func() bool { return n.tel.inboxHighWater.Value() >= inboxDepth+3 })
	if got := counter(reg, "speedlight_obs_retries_total"); got != 1 {
		t.Errorf("observer asked %d devices to retry, want the wedged one", got)
	}
	if got := n.tel.inboxDrops.Value(); got != 0 {
		t.Errorf("speedlight_live_inbox_drops_total = %d, want 0", got)
	}

	release()
	if g := within(t, done, "snapshot after un-wedging"); !g.Consistent || len(g.Results) != 28 {
		t.Errorf("snapshot consistent=%v with %d of 28 results", g.Consistent, len(g.Results))
	}
	wg.Wait()
	if got := n.tel.inboxDrops.Value(); got != 0 {
		t.Errorf("speedlight_live_inbox_drops_total = %d after draining, want 0", got)
	}
}

// TestMailboxSteadyStateAllocs: once the train and both mailbox slices
// have grown to the burst size, staging with Forward, the Flush that
// puts the train and the swapping take allocate nothing.
//
//speedlight:allocgate live.mailbox.put live.mailbox.take live.liveSwitch.Forward live.liveSwitch.Flush
func TestMailboxSteadyStateAllocs(t *testing.T) {
	_, leaf, uplink, spine := uplinked(t, Config{})
	p := &packet.Packet{}
	round := func() {
		for i := 0; i < 64; i++ {
			leaf.Forward(uplink, p)
		}
		leaf.Flush()
		if burst := spine.inbox.take(); len(burst) != 64 {
			t.Fatalf("took %d of 64", len(burst))
		}
	}
	round()
	round() // the spare has grown too
	if n := testing.AllocsPerRun(1000, round); n != 0 {
		t.Fatalf("steady-state put/take allocates %v per 64-event burst, want 0", n)
	}
}
