package core

import (
	"fmt"
	"math/rand"
	"testing"

	"speedlight/internal/packet"
)

// referenceOnPacket is OnPacket as it was before the steady-state fast
// path: every packet reads the metric, unwraps its ID, takes the slot
// branches and assembles its notification from wrapped registers. It
// never touches the cached wsid, so a unit driven only through it is the
// executable specification the fast unit is compared against. It
// returns a notification for every packet, and whether it must be
// exported.
func referenceOnPacket(u *Unit, pkt *packet.Packet, channel int) (Notification, bool) {
	if !pkt.HasSnap {
		panic("core: OnPacket without snapshot header")
	}
	if channel < 0 || channel >= u.cfg.NumChannels {
		panic(fmt.Sprintf("core: channel %d out of range [0,%d)", channel, u.cfg.NumChannels))
	}
	hdr := &pkt.Snap

	preState := u.metric.Read()

	oldSID := u.sid
	oldLS := u.lastSeen[channel]
	wireID := hdr.ID

	psid := u.unwrap(hdr.ID, oldLS)
	if psid > u.lastSeen[channel] {
		u.lastSeen[channel] = psid
	}

	var absorbed, absorbMissed bool
	switch {
	case psid > u.sid:
		s := u.slotOf(psid)
		s.id = psid
		s.valid = true
		s.value = preState
		u.sid = psid
	case psid < u.sid && u.cfg.ChannelState && hdr.Type == packet.TypeData:
		s := u.slotOf(u.sid)
		if s.valid && s.id == u.sid {
			s.value = u.metric.Absorb(s.value, pkt)
			absorbed = true
		} else {
			absorbMissed = true
		}
	}

	if hdr.Type == packet.TypeData {
		u.metric.Update(pkt)
	}

	hdr.ID = u.wrap(u.sid)

	n := Notification{
		Channel:     channel,
		OldSID:      u.wrap(oldSID),
		NewSID:      u.wrap(u.sid),
		OldLastSeen: u.wrap(oldLS),
		NewLastSeen: u.wrap(u.lastSeen[channel]),

		OldSIDU:      oldSID,
		NewSIDU:      u.sid,
		OldSeenU:     oldLS,
		NewSeenU:     u.lastSeen[channel],
		PacketSID:    psid,
		WireID:       wireID,
		Absorbed:     absorbed,
		AbsorbMissed: absorbMissed,
	}
	return n, n.SIDChanged() || n.LastSeenChanged()
}

// diffChannels is the channel count of the differential units: two
// upstream neighbours and the CPU pseudo-channel.
const diffChannels = 3

// diffPair is a unit driven through OnPacket and a reference unit driven
// through referenceOnPacket, fed the same packets.
type diffPair struct {
	cfg       Config
	fast, ref *Unit
	// steady counts packets that met the fast path's condition.
	steady int
}

func newDiffPair(t testing.TB, cfg Config) *diffPair {
	t.Helper()
	fast, err := NewUnit(cfg, &pktCount{})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewUnit(cfg, &pktCount{})
	if err != nil {
		t.Fatal(err)
	}
	return &diffPair{cfg: cfg, fast: fast, ref: ref}
}

// step feeds both units one packet on channel ch whose wire ID is delta
// epochs from the reference unit's current ID (or, with fromLastSeen,
// from the channel's last-seen entry) — behind or ahead, across
// rollover when wrapping — and fails unless the two agree on the
// packet's epoch, the notification, the stamped header and every
// register. The fast unit returns no notification exactly when the
// reference's reports no change, no absorb and no absorb miss.
func (d *diffPair) step(t testing.TB, ch int, data, fromLastSeen bool, delta int64) {
	t.Helper()
	base := d.ref.sid
	if fromLastSeen {
		base = d.ref.lastSeen[ch]
	}
	var raw int64
	if d.cfg.WrapAround {
		m := int64(d.cfg.MaxID)
		raw = ((int64(Wrap(base, d.cfg.MaxID, true).Raw())+delta)%m + m) % m
	} else {
		raw = max(int64(base)+delta, 0)
	}
	typ := packet.TypeInitiation
	if data {
		typ = packet.TypeData
	}
	hdr := packet.SnapshotHeader{Type: typ, ID: packet.WireIDFromRaw(uint32(raw)), Channel: uint16(ch)}
	fp := &packet.Packet{Size: 100, HasSnap: true, Snap: hdr}
	rp := &packet.Packet{Size: 100, HasSnap: true, Snap: hdr}
	if hdr.ID == d.fast.wsid && d.fast.lastSeen[ch] == d.fast.sid {
		d.steady++
	}

	psid, fn := d.fast.OnPacket(fp, ch)
	rn, rc := referenceOnPacket(d.ref, rp, ch)

	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("%+v ch=%d wire=%d: "+format, append([]any{d.cfg, ch, raw}, args...)...)
	}
	if psid != rn.PacketSID {
		fail("packet epoch %d, reference %d", psid, rn.PacketSID)
	}
	if quiet := !rc && !rn.Absorbed && !rn.AbsorbMissed; (fn == nil) != quiet {
		fail("notification %+v, reference %+v (change %v)", fn, rn, rc)
	}
	if fn != nil && *fn != rn {
		fail("notification %+v, reference %+v", *fn, rn)
	}
	if fp.Snap != rp.Snap {
		fail("stamped header %+v, reference %+v", fp.Snap, rp.Snap)
	}
	if f, r := d.fast.RegCurrentSID(), d.ref.wrap(d.ref.sid); f != r {
		fail("RegCurrentSID %d, reference %d", f, r)
	}
	if d.fast.wsid != d.fast.wrap(d.fast.sid) {
		fail("cached epoch %d, wrapped epoch %d", d.fast.wsid, d.fast.wrap(d.fast.sid))
	}
	for c := 0; c < diffChannels; c++ {
		if f, r := d.fast.RegLastSeen(c), d.ref.RegLastSeen(c); f != r {
			fail("RegLastSeen(%d) %d, reference %d", c, f, r)
		}
	}
	// Equal slots make RegSnapshot agree at every ID.
	for i := range d.fast.snaps {
		if d.fast.snaps[i] != d.ref.snaps[i] {
			fail("slot %d %+v, reference %+v", i, d.fast.snaps[i], d.ref.snaps[i])
		}
	}
	fv, fok := d.fast.RegSnapshot(d.ref.sid)
	if rv, rok := d.ref.RegSnapshot(d.ref.sid); fv != rv || fok != rok {
		fail("RegSnapshot(%d) = (%d, %v), reference (%d, %v)", d.ref.sid, fv, fok, rv, rok)
	}
	if f, r := d.fast.metric.Read(), d.ref.metric.Read(); f != r {
		fail("metric %d, reference %d", f, r)
	}
}

// diffConfigs is every (MaxID, WrapAround, ChannelState) the
// differential checks cover.
func diffConfigs() []Config {
	var out []Config
	for _, maxID := range []uint32{4, 256} {
		for _, wrap := range []bool{true, false} {
			for _, cs := range []bool{false, true} {
				out = append(out, Config{
					MaxID: maxID, WrapAround: wrap, ChannelState: cs,
					NumChannels: diffChannels, CPChannel: diffChannels - 1,
				})
			}
		}
	}
	return out
}

// TestOnPacketFastPathMatchesReference drives a fast unit and a
// reference unit with one seeded random stream per configuration —
// mostly steady-state packets, with IDs behind and ahead (across
// rollover), data and initiation packets on every channel — and
// requires identical observable behaviour after every packet.
func TestOnPacketFastPathMatchesReference(t *testing.T) {
	for i, cfg := range diffConfigs() {
		r := rand.New(rand.NewSource(int64(25 + i)))
		d := newDiffPair(t, cfg)
		for n := 0; n < 4000; n++ {
			var delta int64
			switch x := r.Intn(10); {
			case x < 6:
				delta = 0
			case x < 8:
				delta = int64(r.Intn(3)) + 1
			default:
				delta = -int64(r.Intn(3)) - 1
			}
			d.step(t, r.Intn(diffChannels), r.Intn(5) > 0, r.Intn(4) == 0, delta)
		}
		if d.steady < 1000 {
			t.Errorf("%+v: only %d steady-state packets of 4000: the fast path is barely exercised", d.cfg, d.steady)
		}
	}
}

// FuzzOnPacketFastPath: the first byte picks the configuration, then
// each byte pair is one packet — channel, data or initiation, ID base
// (current ID or the channel's last-seen) and a signed epoch delta.
func FuzzOnPacketFastPath(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 1, 0x10, 1, 0, 2, 0xf0})
	f.Add([]byte{3, 0, 0x10, 0, 0x10, 0, 0x10, 0, 0x10, 0, 0x10, 1, 0})
	f.Add([]byte{6, 2, 0x30, 0, 0, 1, 0, 9, 0xe0, 0, 0})
	f.Add([]byte{7, 0, 0x10, 1, 0, 0, 0xf0, 4, 0, 8, 0})
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) == 0 {
			return
		}
		cfgs := diffConfigs()
		d := newDiffPair(t, cfgs[int(in[0])%len(cfgs)])
		for i := 1; i+1 < len(in); i += 2 {
			a, b := in[i], in[i+1]
			d.step(t, int(a%diffChannels), a&4 == 0, a&8 != 0, int64(int8(b))>>4)
		}
	})
}
