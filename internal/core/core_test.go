package core

import (
	"math/rand"
	"testing"

	"speedlight/internal/packet"
)

// pktCount is a minimal packet-count metric for tests; the real
// implementations live in internal/counters, which cannot be imported
// here without a cycle.
type pktCount struct{ n uint64 }

func (c *pktCount) Read() uint64                             { return c.n }
func (c *pktCount) Update(*packet.Packet)                    { c.n++ }
func (c *pktCount) Absorb(v uint64, _ *packet.Packet) uint64 { return v + 1 }

func testCfg(mod func(*Config)) Config {
	cfg := Config{
		MaxID:        256,
		WrapAround:   true,
		ChannelState: true,
		NumChannels:  2,
		CPChannel:    1,
	}
	if mod != nil {
		mod(&cfg)
	}
	return cfg
}

func mustUnit(t *testing.T, cfg Config, m Metric) *Unit {
	t.Helper()
	u, err := NewUnit(cfg, m)
	if err != nil {
		t.Fatal(err)
	}
	return u
}

func dataPkt(sid packet.WireID, ch uint16) *packet.Packet {
	return &packet.Packet{
		Size:    100,
		HasSnap: true,
		Snap:    packet.SnapshotHeader{Type: packet.TypeData, ID: sid, Channel: ch},
	}
}

func initPkt(sid packet.WireID) *packet.Packet {
	return &packet.Packet{
		HasSnap: true,
		Snap:    packet.SnapshotHeader{Type: packet.TypeInitiation, ID: sid},
	}
}

func TestConfigValidation(t *testing.T) {
	cases := []Config{
		{MaxID: 1, NumChannels: 1, CPChannel: -1},
		{MaxID: 4, NumChannels: 0, CPChannel: -1},
		{MaxID: 4, NumChannels: 2, CPChannel: 2},
	}
	for i, cfg := range cases {
		if _, err := NewUnit(cfg, &pktCount{}); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	if _, err := NewUnit(testCfg(nil), nil); err == nil {
		t.Error("nil metric accepted")
	}
}

func TestSnapshotTriggeredByHigherID(t *testing.T) {
	m := &pktCount{}
	u := mustUnit(t, testCfg(nil), m)

	// Three packets in epoch 0.
	for i := 0; i < 3; i++ {
		u.OnPacket(dataPkt(0, 0), 0)
	}
	// A packet carrying ID 1 triggers the snapshot. The snapshot must
	// record the state BEFORE this packet (its send was post-snapshot
	// upstream).
	p := dataPkt(1, 0)
	_, n := u.OnPacket(p, 0)
	if n == nil || !n.SIDChanged() {
		t.Fatal("expected SID change notification")
	}
	if u.CurrentSID() != 1 {
		t.Errorf("sid = %d", u.CurrentSID())
	}
	v, ok := u.RegSnapshot(1)
	if !ok {
		t.Fatal("snapshot 1 not recorded")
	}
	if v != 3 {
		t.Errorf("snapshot value = %d, want 3 (must exclude the triggering packet)", v)
	}
	if m.Read() != 4 {
		t.Errorf("counter = %d, want 4", m.Read())
	}
	if p.Snap.ID != 1 {
		t.Errorf("outgoing header ID = %d", p.Snap.ID)
	}
}

func TestOutgoingHeaderStampedWithLocalID(t *testing.T) {
	u := mustUnit(t, testCfg(nil), &pktCount{})
	u.OnPacket(dataPkt(5, 0), 0) // advance to 5
	// An in-flight packet (old epoch) leaves stamped with the local ID.
	p := dataPkt(3, 0)
	// Channel 0 lastSeen is 5 now; a lower wire ID on the same channel
	// would violate FIFO. Use a fresh unit to model a second channel.
	u2 := mustUnit(t, testCfg(func(c *Config) { c.NumChannels = 3; c.CPChannel = 2 }), &pktCount{})
	u2.OnPacket(dataPkt(5, 0), 0)
	u2.OnPacket(p, 1)
	if p.Snap.ID != 5 {
		t.Errorf("in-flight packet restamped with %d, want 5", p.Snap.ID)
	}
}

func TestInFlightAbsorbedIntoChannelState(t *testing.T) {
	cfg := testCfg(func(c *Config) { c.NumChannels = 3; c.CPChannel = 2 })
	m := &pktCount{}
	u := mustUnit(t, cfg, m)

	// Two packets pre-snapshot on channel 0.
	u.OnPacket(dataPkt(0, 0), 0)
	u.OnPacket(dataPkt(0, 0), 0)
	// Epoch 1 arrives on channel 0.
	u.OnPacket(dataPkt(1, 0), 0)
	if v, _ := u.RegSnapshot(1); v != 2 {
		t.Fatalf("snapshot = %d, want 2", v)
	}
	// An in-flight packet (epoch 0) arrives on channel 1: the recorded
	// snapshot absorbs it.
	u.OnPacket(dataPkt(0, 1), 1)
	if v, _ := u.RegSnapshot(1); v != 3 {
		t.Errorf("snapshot after absorb = %d, want 3", v)
	}
	// The unit's live counter includes all four packets.
	if m.Read() != 4 {
		t.Errorf("counter = %d", m.Read())
	}
}

func TestNoAbsorbWithoutChannelState(t *testing.T) {
	cfg := testCfg(func(c *Config) {
		c.ChannelState = false
		c.NumChannels = 3
		c.CPChannel = 2
	})
	u := mustUnit(t, cfg, &pktCount{})
	u.OnPacket(dataPkt(0, 0), 0)
	u.OnPacket(dataPkt(1, 0), 0)
	u.OnPacket(dataPkt(0, 1), 1) // in-flight, but channel state disabled
	if v, _ := u.RegSnapshot(1); v != 1 {
		t.Errorf("snapshot = %d, want 1 (no channel state)", v)
	}
}

func TestInitiationPacketNotCountedNotAbsorbed(t *testing.T) {
	cfg := testCfg(func(c *Config) { c.NumChannels = 3; c.CPChannel = 2 })
	m := &pktCount{}
	u := mustUnit(t, cfg, m)
	u.OnPacket(dataPkt(0, 0), 0)

	// Initiation for epoch 1 from the CPU.
	_, n := u.OnPacket(initPkt(1), 2)
	if n == nil || !n.SIDChanged() {
		t.Fatal("initiation should advance the SID")
	}
	if m.Read() != 1 {
		t.Errorf("initiation counted: %d", m.Read())
	}
	if v, _ := u.RegSnapshot(1); v != 1 {
		t.Errorf("snapshot = %d, want 1", v)
	}
	// A stale initiation (epoch 0) must not be absorbed as in-flight.
	u.OnPacket(initPkt(0), 2)
	if v, _ := u.RegSnapshot(1); v != 1 {
		t.Errorf("stale initiation absorbed into channel state: %d", v)
	}
}

func TestDuplicateInitiationIgnored(t *testing.T) {
	u := mustUnit(t, testCfg(nil), &pktCount{})
	u.OnPacket(initPkt(1), 1)
	sid := u.CurrentSID()
	if _, n := u.OnPacket(initPkt(1), 1); n != nil {
		t.Error("duplicate initiation produced a notification")
	}
	if u.CurrentSID() != sid {
		t.Error("duplicate initiation changed SID")
	}
}

func TestSkippedEpochSlotsAreUninitialized(t *testing.T) {
	u := mustUnit(t, testCfg(nil), &pktCount{})
	u.OnPacket(dataPkt(0, 0), 0)
	u.OnPacket(dataPkt(3, 0), 0) // jump 0 -> 3
	if _, ok := u.RegSnapshot(1); ok {
		t.Error("skipped epoch 1 has a value")
	}
	if _, ok := u.RegSnapshot(2); ok {
		t.Error("skipped epoch 2 has a value")
	}
	if v, ok := u.RegSnapshot(3); !ok || v != 1 {
		t.Errorf("epoch 3 = (%d,%v), want (1,true)", v, ok)
	}
}

func TestLastSeenTracking(t *testing.T) {
	cfg := testCfg(func(c *Config) { c.NumChannels = 3; c.CPChannel = 2 })
	u := mustUnit(t, cfg, &pktCount{})
	u.OnPacket(dataPkt(2, 0), 0)
	if u.LastSeenUnwrapped(0) != 2 {
		t.Errorf("lastSeen[0] = %d", u.LastSeenUnwrapped(0))
	}
	if u.LastSeenUnwrapped(1) != 0 {
		t.Errorf("lastSeen[1] = %d", u.LastSeenUnwrapped(1))
	}
	if u.MinLastSeen() != 0 {
		t.Errorf("MinLastSeen = %d", u.MinLastSeen())
	}
	u.OnPacket(dataPkt(2, 1), 1)
	if u.MinLastSeen() != 2 {
		t.Errorf("MinLastSeen = %d, want 2", u.MinLastSeen())
	}
}

func TestMinLastSeenExcludesCPChannel(t *testing.T) {
	cfg := testCfg(func(c *Config) { c.NumChannels = 2; c.CPChannel = 1 })
	u := mustUnit(t, cfg, &pktCount{})
	// CP initiates epoch 5; external channel still at 0.
	u.OnPacket(initPkt(5), 1)
	if u.LastSeenUnwrapped(1) != 5 {
		t.Errorf("CP lastSeen = %d", u.LastSeenUnwrapped(1))
	}
	// Completion must not be gated on the CP channel, nor unlocked by it:
	// the external channel has seen nothing.
	if u.MinLastSeen() != 0 {
		t.Errorf("MinLastSeen = %d, want 0", u.MinLastSeen())
	}
}

func TestWraparound(t *testing.T) {
	cfg := testCfg(func(c *Config) { c.MaxID = 8 })
	u := mustUnit(t, testCfg(func(c *Config) { c.MaxID = 8 }), &pktCount{})
	_ = cfg
	// Walk the ID through two full laps, one step at a time.
	for i := packet.SeqID(1); i <= 20; i++ {
		wire := Wrap(i, 8, true)
		u.OnPacket(dataPkt(wire, 0), 0)
		if u.CurrentSID() != i {
			t.Fatalf("after wire %d: sid = %d, want %d", wire, u.CurrentSID(), i)
		}
	}
	// The register slot for epoch 20 must be valid; epoch 12 (same slot
	// 4, previous lap) must read as stale.
	if _, ok := u.RegSnapshot(20); !ok {
		t.Error("epoch 20 missing")
	}
	if _, ok := u.RegSnapshot(12); ok {
		t.Error("epoch 12 readable after slot reuse (stale lap)")
	}
}

func TestNoWraparoundUsesFullIDSpace(t *testing.T) {
	cfg := testCfg(func(c *Config) { c.WrapAround = false; c.MaxID = 4 })
	u := mustUnit(t, cfg, &pktCount{})
	u.OnPacket(dataPkt(1000, 0), 0)
	if u.CurrentSID() != 1000 {
		t.Errorf("sid = %d, want 1000", u.CurrentSID())
	}
	if _, ok := u.RegSnapshot(1000); !ok {
		t.Error("snapshot 1000 missing")
	}
}

func TestNotificationCarriesFormerValues(t *testing.T) {
	u := mustUnit(t, testCfg(nil), &pktCount{})
	u.OnPacket(dataPkt(1, 0), 0)
	_, n := u.OnPacket(dataPkt(2, 0), 0)
	if n == nil {
		t.Fatal("no notification")
	}
	if n.OldSID != 1 || n.NewSID != 2 {
		t.Errorf("SID %d->%d, want 1->2", n.OldSID, n.NewSID)
	}
	if n.OldLastSeen != 1 || n.NewLastSeen != 2 {
		t.Errorf("LastSeen %d->%d, want 1->2", n.OldLastSeen, n.NewLastSeen)
	}
	if n.Channel != 0 {
		t.Errorf("Channel = %d", n.Channel)
	}
}

func TestNoNotificationWithoutProgress(t *testing.T) {
	u := mustUnit(t, testCfg(nil), &pktCount{})
	u.OnPacket(dataPkt(1, 0), 0)
	if _, n := u.OnPacket(dataPkt(1, 0), 0); n != nil { // same epoch, same lastSeen
		t.Error("notification emitted with no state change")
	}
}

func TestPanicsOnMissingHeader(t *testing.T) {
	u := mustUnit(t, testCfg(nil), &pktCount{})
	defer func() {
		if recover() == nil {
			t.Error("no panic on missing header")
		}
	}()
	u.OnPacket(&packet.Packet{}, 0)
}

func TestPanicsOnBadChannel(t *testing.T) {
	u := mustUnit(t, testCfg(nil), &pktCount{})
	defer func() {
		if recover() == nil {
			t.Error("no panic on bad channel")
		}
	}()
	u.OnPacket(dataPkt(0, 0), 5)
}

// TestDifferentialIdealVsHardware drives the hardware-approximate Unit
// and the IdealUnit with identical smooth traffic (IDs never skip) and
// requires identical snapshot values: in the cases the control plane
// reports consistent, the approximation must be exact.
func TestDifferentialIdealVsHardware(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for trial := 0; trial < 25; trial++ {
		cfg := testCfg(func(c *Config) {
			c.NumChannels = 3
			c.CPChannel = 2
			c.MaxID = 16 // force wraparound coverage
		})
		hwM, idM := &pktCount{}, &pktCount{}
		hw := mustUnit(t, cfg, hwM)
		id := NewIdealUnit(idM, true)

		// Per-channel epoch trackers carrying non-decreasing IDs. The
		// epoch advances only when every channel has caught up, so no
		// channel ever lags by more than 1: the smooth regime in which
		// the hardware approximation must be *exact*. (Lag beyond 1 is
		// the inconsistent regime, covered by TestTwoUnitCutInvariant.)
		chEpoch := []packet.SeqID{0, 0}
		epoch := packet.SeqID(0)
		for step := 0; step < 400; step++ {
			ch := r.Intn(2)
			if r.Float64() < 0.1 && chEpoch[0] == epoch && chEpoch[1] == epoch {
				epoch++
			}
			// This channel sends either its current (lagging by at most
			// one) epoch or catches up to the global one.
			if r.Float64() < 0.7 {
				chEpoch[ch] = epoch
			}
			sid := chEpoch[ch]
			hwP := dataPkt(Wrap(sid, cfg.MaxID, true), uint16(ch))
			idP := dataPkt(Wrap(sid, 0, false), uint16(ch))
			hw.OnPacket(hwP, ch)
			id.OnPacket(idP, ch)
		}
		if hw.CurrentSID() != id.SID() {
			t.Fatalf("trial %d: sid diverged: hw=%d ideal=%d", trial, hw.CurrentSID(), id.SID())
		}
		// Every complete snapshot the hardware still holds must match
		// the ideal value. Complete means all (non-CP) channels have
		// seen it; only then has all channel state been absorbed.
		done := hw.MinLastSeen()
		for i := packet.SeqID(1); i <= done; i++ {
			hv, hok := hw.RegSnapshot(i)
			iv, iok := id.Snapshot(i)
			if !iok {
				t.Fatalf("trial %d: ideal missing snapshot %d", trial, i)
			}
			if !hok {
				continue // overwritten by a later lap; allowed
			}
			if hv != iv {
				t.Fatalf("trial %d: snapshot %d: hw=%d ideal=%d", trial, i, hv, iv)
			}
		}
	}
}

// TestTwoUnitCutInvariant is the protocol's core guarantee in miniature:
// a sender unit A feeding a FIFO queue into a receiver unit B. For every
// complete snapshot i, the packets counted pre-snapshot at A equal the
// packets counted pre-snapshot at B plus the in-flight channel state B
// absorbed — i.e., the cut is causally consistent and no packet is lost
// or double-counted across it (Section 2.2's "impossible states" never
// appear).
func TestTwoUnitCutInvariant(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 50; trial++ {
		cfgA := testCfg(func(c *Config) { c.MaxID = 32 })
		cfgB := testCfg(func(c *Config) { c.MaxID = 32 })
		mA, mB := &pktCount{}, &pktCount{}
		a := mustUnit(t, cfgA, mA)
		b := mustUnit(t, cfgB, mB)

		var queue []*packet.Packet // FIFO channel A -> B
		epoch := packet.SeqID(0)

		// Figure 7: when a unit's snapshot ID advances while older
		// snapshots are incomplete (min lastSeen below the new ID),
		// those older snapshots can still receive in-flight packets
		// that the hardware will absorb into the *current* slot only.
		// The control plane marks them inconsistent; replicate that
		// marking for B, the only unit receiving in-flight traffic.
		inconsistent := map[packet.SeqID]bool{}
		bOnPacket := func(p *packet.Packet, ch int) {
			before := b.MinLastSeen()
			oldSID := b.CurrentSID()
			b.OnPacket(p, ch)
			if newSID := b.CurrentSID(); newSID > oldSID {
				for i := before + 1; i < newSID; i++ {
					inconsistent[i] = true
				}
			}
		}

		deliver := func() {
			if len(queue) == 0 {
				return
			}
			p := queue[0]
			queue = queue[1:]
			bOnPacket(p, 0)
		}
		send := func() {
			p := dataPkt(Wrap(epoch, 32, true), 0)
			a.OnPacket(p, 0) // A stamps its current epoch
			queue = append(queue, p)
		}
		initiate := func() {
			// Multi-initiator: the control planes initiate at both A
			// and B near-simultaneously (Section 6), one epoch at a
			// time (the consistent regime).
			if a.CurrentSID() == epoch && b.CurrentSID() >= epoch {
				epoch++
				a.OnPacket(initPkt(Wrap(epoch, 32, true)), 1)
				bOnPacket(initPkt(Wrap(epoch, 32, true)), 1)
			}
		}

		for step := 0; step < 1000; step++ {
			switch x := r.Float64(); {
			case x < 0.45:
				send()
			case x < 0.9:
				deliver()
			default:
				initiate()
			}
		}
		// Drain the channel so every snapshot completes at B.
		for len(queue) > 0 {
			deliver()
		}
		send() // push A's final epoch marker through
		deliver()

		done := b.MinLastSeen()
		if done < epoch && epoch > 0 {
			// B has seen A's final epoch after the drain.
			t.Fatalf("trial %d: B incomplete: done=%d epoch=%d", trial, done, epoch)
		}
		checked := 0
		for i := packet.SeqID(1); i <= epoch; i++ {
			if inconsistent[i] {
				continue // Figure 7 would discard this snapshot
			}
			av, aok := a.RegSnapshot(i)
			bv, bok := b.RegSnapshot(i)
			if !aok || !bok {
				continue // lap-overwritten; not readable anymore
			}
			checked++
			if av != bv {
				t.Fatalf("trial %d: cut invariant violated at snapshot %d: A sent %d pre-cut, B accounted %d",
					trial, i, av, bv)
			}
		}
		if epoch > 4 && checked == 0 {
			t.Fatalf("trial %d: no consistent snapshot checked (epoch=%d) — test is vacuous", trial, epoch)
		}
	}
}

func TestIdealUnitLoopsThroughSkippedEpochs(t *testing.T) {
	m := &pktCount{}
	u := NewIdealUnit(m, true)
	u.OnPacket(dataPkt(0, 0), 0)
	u.OnPacket(dataPkt(0, 0), 0)
	u.OnPacket(dataPkt(3, 0), 0) // jump: ideal fills 1,2,3 with the same state
	for i := packet.SeqID(1); i <= 3; i++ {
		v, ok := u.Snapshot(i)
		if !ok || v != 2 {
			t.Errorf("ideal snapshot %d = (%d,%v), want (2,true)", i, v, ok)
		}
	}
	// An in-flight epoch-0 packet updates channel state of 1..3.
	u.OnPacket(dataPkt(0, 1), 1)
	for i := packet.SeqID(1); i <= 3; i++ {
		if v, _ := u.Snapshot(i); v != 3 {
			t.Errorf("ideal snapshot %d after absorb = %d, want 3", i, v)
		}
	}
}

func TestIdealUnitNoChannelState(t *testing.T) {
	u := NewIdealUnit(&pktCount{}, false)
	u.OnPacket(dataPkt(0, 0), 0)
	u.OnPacket(dataPkt(1, 0), 0)
	u.OnPacket(dataPkt(0, 1), 1) // would-be in-flight: ignored
	if v, _ := u.Snapshot(1); v != 1 {
		t.Errorf("snapshot = %d, want 1", v)
	}
	if u.MinLastSeen() != u.SID() {
		t.Error("MinLastSeen should equal SID without channel state")
	}
}

func TestNodeAttachmentJumpsForward(t *testing.T) {
	// A freshly attached unit (all state zero) jumps to the network's
	// current snapshot ID on first traffic (Section 6).
	u := mustUnit(t, testCfg(nil), &pktCount{})
	u.OnPacket(dataPkt(40, 0), 0)
	if u.CurrentSID() != 40 {
		t.Errorf("sid = %d, want 40", u.CurrentSID())
	}
}

func TestStaleInitiationIgnoredUnderWraparound(t *testing.T) {
	// Section 6: duplicate and outdated control-plane initiations are
	// ignored by the data plane. With wraparound, an outdated wire ID
	// must resolve as "behind", never as a forward rollover lap.
	u := mustUnit(t, testCfg(func(c *Config) { c.MaxID = 8 }), &pktCount{})
	u.OnPacket(initPkt(3), 1)
	if u.CurrentSID() != 3 {
		t.Fatalf("sid = %d", u.CurrentSID())
	}
	// A delayed retry for snapshot 2 arrives after the unit reached 3.
	if _, n := u.OnPacket(initPkt(2), 1); n != nil {
		t.Error("stale initiation produced a notification")
	}
	if u.CurrentSID() != 3 {
		t.Errorf("stale initiation moved sid to %d", u.CurrentSID())
	}
	// Even a maximally stale one (wire ID that would unwrap below 0).
	fresh := mustUnit(t, testCfg(func(c *Config) { c.MaxID = 8 }), &pktCount{})
	fresh.OnPacket(initPkt(7), 1) // wire 7 at ref 0: behind by 1, clamped
	if fresh.CurrentSID() != 0 {
		t.Errorf("stale wire ID advanced fresh unit to %d", fresh.CurrentSID())
	}
}

// TestUnwrapProperty pins the serial-number arithmetic: for any
// reference and any true ID within half the ID space of it (ahead or
// behind), wrap followed by unwrap-against-the-reference recovers the
// truth exactly; anything older than the unit has seen clamps to 0.
func TestUnwrapProperty(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for _, maxID := range []uint32{4, 8, 16, 64, 256} {
		u := mustUnit(t, testCfg(func(c *Config) { c.MaxID = maxID }), &pktCount{})
		half := uint64(maxID) / 2
		for trial := 0; trial < 2000; trial++ {
			ref := packet.SeqID(r.Int63n(1 << 30))
			// delta in (-half, half): the resolvable window.
			delta := r.Int63n(int64(2*half)-1) - int64(half) + 1
			truth := int64(ref) + delta
			if truth < 0 {
				continue
			}
			wire := u.WrapForTest(packet.SeqID(truth))
			got := u.UnwrapForTest(wire, ref)
			if got != packet.SeqID(truth) {
				t.Fatalf("maxID=%d ref=%d truth=%d wire=%d: unwrap=%d",
					maxID, ref, truth, wire, got)
			}
		}
		// Behind-by-more-than-ref clamps to zero.
		if got := u.UnwrapForTest(u.WrapForTest(packet.SeqID(maxID)-1), 0); got != 0 {
			t.Errorf("maxID=%d: stale wire did not clamp: %d", maxID, got)
		}
	}
}
