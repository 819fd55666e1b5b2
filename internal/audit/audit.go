// Package audit replays a journal of protocol events and mechanically
// verifies the paper's causal-consistency invariants for every global
// snapshot, turning "the counter says a snapshot was inconsistent"
// into a concrete witness chain of events that violated the cut.
//
// The audited invariants (see DESIGN.md for the mapping to the paper's
// Section 3/4 protocol rules):
//
//   - Exactly-once recording: every registered processing unit records
//     exactly once per snapshot ID; in channel-state mode a skipped ID
//     means the unit's in-flight accounting for that cut is lost.
//   - Cut closure: no in-flight (pre-snapshot) packet is counted in a
//     later cut than the one it crossed — an absorb into slot C of a
//     packet stamped P < C-1 leaves every cut strictly between P and C
//     missing that packet.
//   - Channel-state balance: an in-flight packet that finds no open
//     slot (absorb miss) is lost from its cut entirely.
//   - Monotone per-unit IDs: a unit's snapshot ID never regresses.
//   - Rollover window: with ID wraparound enabled, no snapshot begins
//     while an open snapshot is more than MaxID/2 behind (the paper's
//     no-lapping rule, Section 5.3).
//
// Each snapshot receives a verdict — Consistent, Inconsistent with a
// cause and witness events, or Incomplete with the stuck units — and
// the verdict is cross-checked against the observer's own consistency
// flag. The observer is deliberately conservative (it marks skipped
// IDs inconsistent without proving a packet crossed the cut), so
// observer-stricter-than-auditor is expected and noted; the reverse —
// the auditor proving a violation the observer missed — is a defect
// and counted in Report.Disagreements.
package audit

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"

	"speedlight/internal/journal"
	"speedlight/internal/packet"
)

// Kind classifies a snapshot verdict.
type Kind int

const (
	// Consistent: every invariant holds and the snapshot completed.
	Consistent Kind = iota
	// Inconsistent: at least one invariant is violated; Witness holds
	// the proving events.
	Inconsistent
	// Incomplete: the snapshot never finalized, or finalized with
	// excluded devices; Stuck names the missing units.
	Incomplete
)

// String returns the verdict kind's name.
func (k Kind) String() string {
	switch k {
	case Consistent:
		return "consistent"
	case Inconsistent:
		return "inconsistent"
	case Incomplete:
		return "incomplete"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// MarshalJSON encodes the kind as its name.
func (k Kind) MarshalJSON() ([]byte, error) { return json.Marshal(k.String()) }

// UnmarshalJSON decodes a kind name.
func (k *Kind) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	switch s {
	case "consistent":
		*k = Consistent
	case "inconsistent":
		*k = Inconsistent
	case "incomplete":
		*k = Incomplete
	default:
		return fmt.Errorf("audit: unknown verdict kind %q", s)
	}
	return nil
}

// Verdict is the audit outcome for one global snapshot.
type Verdict struct {
	SnapshotID packet.SeqID `json:"snapshot_id"`
	Kind       Kind         `json:"kind"`
	// Cause explains an Inconsistent or Incomplete verdict.
	Cause string `json:"cause,omitempty"`
	// Witness holds the journal events that prove the verdict.
	Witness []journal.Event `json:"witness,omitempty"`
	// Stuck names units or devices still owed to an Incomplete snapshot.
	Stuck []string `json:"stuck,omitempty"`

	// ObserverSeen is true when the journal contains the observer's own
	// finalization of this snapshot; ObserverConsistent is its flag.
	ObserverSeen       bool `json:"observer_seen"`
	ObserverConsistent bool `json:"observer_consistent"`
	// Disagreement is the defect case: the auditor proved a violation
	// but the observer reported the snapshot consistent.
	Disagreement bool `json:"disagreement"`
	// ObserverStricter is the expected case: the observer flagged the
	// snapshot inconsistent although no audited invariant is violated
	// (its detection is conservative by design).
	ObserverStricter bool `json:"observer_stricter"`
}

// Report is the audit of one journal.
type Report struct {
	Events       int    `json:"events"`
	MaxID        uint64 `json:"max_id"`
	Wraparound   bool   `json:"wraparound"`
	ChannelState bool   `json:"channel_state"`

	Verdicts []Verdict `json:"verdicts"`

	// Disagreements counts verdicts where the auditor proved a
	// violation the observer missed — each one is a defect.
	Disagreements int `json:"disagreements"`
	// Truncated notes that the per-unit record chains have gaps,
	// meaning the ring overwrote events and absence of evidence is not
	// evidence of absence.
	Truncated bool `json:"truncated"`
}

// Counts returns how many verdicts landed in each kind.
func (r *Report) Counts() (consistent, inconsistent, incomplete int) {
	for _, v := range r.Verdicts {
		switch v.Kind {
		case Consistent:
			consistent++
		case Inconsistent:
			inconsistent++
		case Incomplete:
			incomplete++
		}
	}
	return
}

// Config seeds deployment parameters for journals that carry no
// KindConfig event; a KindConfig event in the journal wins.
type Config struct {
	MaxID        uint64
	Wraparound   bool
	ChannelState bool
}

// unitKey identifies a processing unit.
type unitKey struct {
	sw, port int
	dir      journal.Dir
}

func (u unitKey) String() string {
	return fmt.Sprintf("sw%d/port%d/%s", u.sw, u.port, u.dir)
}

func unitOf(ev journal.Event) unitKey {
	return unitKey{sw: ev.Switch, port: ev.Port, dir: ev.Dir}
}

// violation is one proven invariant breach, attached to a snapshot ID.
type violation struct {
	cause   string
	witness []journal.Event
}

const maxWitness = 16

// Replay audits everything a deployment's journal set holds, seeded
// with the deployment's protocol parameters: the body of every
// runtime's Audit(). Nil when journaling is disabled (nil set).
func Replay(set *journal.Set, maxID uint32, wraparound, channelState bool) *Report {
	if set == nil {
		return nil
	}
	return Run(set.Events(), Config{MaxID: uint64(maxID), Wraparound: wraparound, ChannelState: channelState})
}

// Run audits a journal. Events may arrive in any order; they are
// replayed by sequence number.
func Run(events []journal.Event, cfg Config) *Report {
	evs := make([]journal.Event, len(events))
	copy(evs, events)
	sort.Slice(evs, func(a, b int) bool { return evs[a].Seq < evs[b].Seq })

	rep := &Report{
		Events:       len(evs),
		MaxID:        cfg.MaxID,
		Wraparound:   cfg.Wraparound,
		ChannelState: cfg.ChannelState,
	}

	// First pass: deployment config, unit registry, per-unit record
	// chains, per-snapshot observer lifecycle, and supporting events.
	expected := map[unitKey]bool{}
	records := map[unitKey][]journal.Event{}
	var absorbs, misses []journal.Event
	drops := map[int][]journal.Event{} // switch -> dropped notifications
	type snapState struct {
		begun    bool
		results  map[unitKey]journal.Event
		excluded []journal.Event
		retries  []journal.Event
		complete *journal.Event
	}
	snaps := map[packet.SeqID]*snapState{}
	stateOf := func(id packet.SeqID) *snapState {
		s, ok := snaps[id]
		if !ok {
			s = &snapState{results: map[unitKey]journal.Event{}}
			snaps[id] = s
		}
		return s
	}
	rollViolations := map[packet.SeqID][]violation{}
	open := map[packet.SeqID]journal.Event{} // begun, not yet complete
	// Churn awareness: a switch-down event ends its units' record
	// chains (teardown flushes their state), and a switch-up restarts
	// them from a zeroed baseline — neither is a recording violation.
	churnDowns := map[int][]uint64{} // switch -> seqs of churn switch-down
	churnUps := map[int][]uint64{}   // switch -> seqs of churn switch-up
	beginSeq := map[packet.SeqID]uint64{}

	for _, ev := range evs {
		switch ev.Kind {
		case journal.KindConfig:
			rep.MaxID = ev.Value
			rep.Wraparound = ev.NewID == 1
			rep.ChannelState = ev.Flag
		case journal.KindRegister:
			expected[unitOf(ev)] = true
		case journal.KindRecord:
			records[unitOf(ev)] = append(records[unitOf(ev)], ev)
		case journal.KindAbsorb:
			absorbs = append(absorbs, ev)
		case journal.KindAbsorbMiss:
			misses = append(misses, ev)
		case journal.KindNotifDrop:
			drops[ev.Switch] = append(drops[ev.Switch], ev)
		case journal.KindObsBegin:
			// No-lapping rule: beginning an ID more than MaxID/2 ahead
			// of a still-open snapshot would let the wrapped ID lap it.
			if rep.Wraparound && rep.MaxID > 0 {
				// Sorted: violation order must not depend on map order.
				oldIDs := make([]packet.SeqID, 0, len(open))
				for oldID := range open {
					oldIDs = append(oldIDs, oldID)
				}
				sort.Slice(oldIDs, func(a, b int) bool { return oldIDs[a] < oldIDs[b] })
				for _, oldID := range oldIDs {
					if uint64(ev.SnapshotID-oldID) >= rep.MaxID/2 {
						rollViolations[ev.SnapshotID] = append(rollViolations[ev.SnapshotID], violation{
							cause:   fmt.Sprintf("rollover window violated: snapshot %d begun while snapshot %d is still open (window %d)", ev.SnapshotID, oldID, rep.MaxID/2),
							witness: []journal.Event{open[oldID], ev},
						})
					}
				}
			}
			open[ev.SnapshotID] = ev
			stateOf(ev.SnapshotID).begun = true
			beginSeq[ev.SnapshotID] = ev.Seq
		case journal.KindObsResult:
			stateOf(ev.SnapshotID).results[unitOf(ev)] = ev
		case journal.KindObsRetry:
			stateOf(ev.SnapshotID).retries = append(stateOf(ev.SnapshotID).retries, ev)
		case journal.KindObsExclude:
			stateOf(ev.SnapshotID).excluded = append(stateOf(ev.SnapshotID).excluded, ev)
		case journal.KindObsComplete:
			e := ev
			stateOf(ev.SnapshotID).complete = &e
			delete(open, ev.SnapshotID)
		case journal.KindChurn:
			switch ev.Value {
			case journal.ChurnSwitchDown:
				churnDowns[ev.Switch] = append(churnDowns[ev.Switch], ev.Seq)
			case journal.ChurnSwitchUp:
				churnUps[ev.Switch] = append(churnUps[ev.Switch], ev.Seq)
			}
		}
	}

	// Fall back to observed units when the journal predates
	// registration (e.g. a flight-recorder tail).
	if len(expected) == 0 {
		for u := range records {
			expected[u] = true
		}
	}

	// seqBetween reports whether any seq in seqs falls strictly inside
	// (a, b); lastBefore returns the largest seq below s (0 if none).
	seqBetween := func(seqs []uint64, a, b uint64) bool {
		for _, s := range seqs {
			if s > a && s < b {
				return true
			}
		}
		return false
	}
	lastBefore := func(seqs []uint64, s uint64) uint64 {
		var out uint64
		for _, q := range seqs {
			if q < s && q > out {
				out = q
			}
		}
		return out
	}

	// beganDuringOutage reports whether snapshot id's initiation falls
	// inside some switch's down segment whose reboot precedes seq. Such
	// a cut never enrolled that switch, so stale stamps it emits after
	// rebooting (from its zeroed baseline) are not closure violations
	// of that cut. Iteration order doesn't matter: the result is a
	// bare predicate, so map ranging stays deterministic-safe.
	beganDuringOutage := func(id packet.SeqID, seq uint64) bool {
		bs, ok := beginSeq[id]
		if !ok {
			return false
		}
		for sw, downs := range churnDowns {
			ups := churnUps[sw]
			for _, d := range downs {
				if d >= bs {
					continue
				}
				var u uint64 // first reboot after this down
				for _, q := range ups {
					if q > d && (u == 0 || q < u) {
						u = q
					}
				}
				if u != 0 && u > bs && u <= seq {
					return true
				}
			}
		}
		return false
	}

	// Deterministic unit order: with several violating units, which one
	// becomes a verdict's Cause must not depend on map iteration.
	units := make([]unitKey, 0, len(records))
	for u := range records {
		units = append(units, u)
	}
	sort.Slice(units, func(a, b int) bool {
		x, y := units[a], units[b]
		if x.sw != y.sw {
			return x.sw < y.sw
		}
		if x.port != y.port {
			return x.port < y.port
		}
		return x.dir < y.dir
	})

	// Per-unit chain integrity: IDs must advance monotonically, and
	// consecutive records must chain OldID == previous NewID; a gap
	// means the ring overwrote events. A churn reboot between two
	// records legitimately restarts the chain from a zeroed baseline.
	chainViolations := map[packet.SeqID][]violation{}
	for _, u := range units {
		chain := records[u]
		for i := 1; i < len(chain); i++ {
			prev, cur := chain[i-1], chain[i]
			if seqBetween(churnDowns[u.sw], prev.Seq, cur.Seq) {
				continue
			}
			switch {
			case cur.NewID <= prev.NewID || cur.OldID < prev.NewID:
				chainViolations[cur.NewID] = append(chainViolations[cur.NewID], violation{
					cause:   fmt.Sprintf("unit %s snapshot ID regressed: recorded %d after %d", u, cur.NewID, prev.NewID),
					witness: []journal.Event{prev, cur},
				})
			case cur.OldID > prev.NewID:
				rep.Truncated = true
			}
		}
	}

	// Which snapshot IDs to audit: everything the observer began, plus
	// anything recorded or completed without a begin (partial journal).
	idSet := map[packet.SeqID]bool{}
	for id := range snaps {
		idSet[id] = true
	}
	ids := make([]packet.SeqID, 0, len(idSet))
	for id := range idSet {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })

	for _, id := range ids {
		st := stateOf(id)
		var violations []violation

		// Exactly-once recording per unit. A unit whose chain jumps
		// over id skipped it; in channel-state mode that cut's
		// in-flight accounting is unrecoverable.
		if rep.ChannelState {
			for _, u := range units {
				for _, rec := range records[u] {
					if rec.OldID < id && id < rec.NewID {
						// A post-reboot record jumps from a zeroed baseline
						// over every snapshot that ran while the switch was
						// out of the fabric; those cuts never expected this
						// unit (the observer unregistered its device), so
						// the jump is not a skip.
						if up := lastBefore(churnUps[u.sw], rec.Seq); up > 0 {
							if bs, ok := beginSeq[id]; ok && bs < up {
								continue
							}
						}
						violations = append(violations, violation{
							cause:   fmt.Sprintf("unit %s skipped snapshot %d (advanced %d->%d), losing its channel state for that cut", u, id, rec.OldID, rec.NewID),
							witness: []journal.Event{rec},
						})
					}
				}
			}
		}

		// Cut closure: an in-flight packet stamped P absorbed into slot
		// C was in flight across every cut in (P, C) but counted only
		// in C.
		for _, ab := range absorbs {
			if ab.OldID < id && id < ab.NewID {
				if beganDuringOutage(id, ab.Seq) {
					continue
				}
				violations = append(violations, violation{
					cause:   fmt.Sprintf("in-flight packet from cut %d absorbed into cut %d crosses snapshot %d uncounted at unit %s", ab.OldID, ab.NewID, id, unitOf(ab)),
					witness: []journal.Event{ab},
				})
			}
		}
		// Channel-state balance: a missed absorb loses the packet from
		// the very cut it arrived in.
		for _, m := range misses {
			if m.NewID == id {
				violations = append(violations, violation{
					cause:   fmt.Sprintf("in-flight packet from cut %d lost at unit %s: no open channel-state slot for snapshot %d", m.OldID, unitOf(m), id),
					witness: []journal.Event{m},
				})
			}
		}

		violations = append(violations, chainViolations[id]...)
		violations = append(violations, rollViolations[id]...)

		v := Verdict{SnapshotID: id}
		if st.complete != nil {
			v.ObserverSeen = true
			v.ObserverConsistent = st.complete.Flag
		}

		switch {
		case len(violations) > 0:
			v.Kind = Inconsistent
			v.Cause = violations[0].cause
			for _, viol := range violations {
				v.Witness = append(v.Witness, viol.witness...)
			}
			v.Witness = dedupeEvents(v.Witness)
			if len(v.Witness) > maxWitness {
				v.Witness = v.Witness[:maxWitness]
			}
			if v.ObserverSeen && v.ObserverConsistent {
				v.Disagreement = true
				rep.Disagreements++
			}
		case st.complete == nil && st.begun:
			v.Kind = Incomplete
			v.Cause = fmt.Sprintf("snapshot %d never finalized", id)
			v.Stuck, v.Witness = stuckUnits(id, expected, st.results, records, drops)
		case st.complete != nil && st.complete.Value > 0:
			v.Kind = Incomplete
			v.Cause = fmt.Sprintf("snapshot %d finalized with %d device(s) excluded", id, st.complete.Value)
			for _, ex := range st.excluded {
				v.Stuck = append(v.Stuck, fmt.Sprintf("sw%d", ex.Switch))
				v.Witness = append(v.Witness, ex)
				v.Witness = append(v.Witness, drops[ex.Switch]...)
			}
			v.Witness = dedupeEvents(v.Witness)
			if len(v.Witness) > maxWitness {
				v.Witness = v.Witness[:maxWitness]
			}
		default:
			v.Kind = Consistent
			if v.ObserverSeen && !v.ObserverConsistent {
				v.ObserverStricter = true
			}
		}
		rep.Verdicts = append(rep.Verdicts, v)
	}

	return rep
}

// stuckUnits names the units a never-finalized snapshot is still
// waiting on, with the events that explain why (dropped notifications
// first, else their last record).
func stuckUnits(id packet.SeqID, expected map[unitKey]bool, got map[unitKey]journal.Event, records map[unitKey][]journal.Event, drops map[int][]journal.Event) ([]string, []journal.Event) {
	var stuck []unitKey
	for u := range expected {
		if _, ok := got[u]; !ok {
			stuck = append(stuck, u)
		}
	}
	sort.Slice(stuck, func(a, b int) bool {
		x, y := stuck[a], stuck[b]
		if x.sw != y.sw {
			return x.sw < y.sw
		}
		if x.port != y.port {
			return x.port < y.port
		}
		return x.dir < y.dir
	})
	var names []string
	var witness []journal.Event
	seenDropSwitch := map[int]bool{}
	for _, u := range stuck {
		names = append(names, u.String())
		if ds := drops[u.sw]; len(ds) > 0 && !seenDropSwitch[u.sw] {
			seenDropSwitch[u.sw] = true
			witness = append(witness, ds...)
		} else if chain := records[u]; len(chain) > 0 && len(witness) < maxWitness {
			last := chain[len(chain)-1]
			if last.NewID < id {
				witness = append(witness, last)
			}
		}
	}
	witness = dedupeEvents(witness)
	if len(witness) > maxWitness {
		witness = witness[:maxWitness]
	}
	return names, witness
}

func dedupeEvents(evs []journal.Event) []journal.Event {
	seen := map[uint64]bool{}
	out := evs[:0]
	for _, ev := range evs {
		if seen[ev.Seq] {
			continue
		}
		seen[ev.Seq] = true
		out = append(out, ev)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Seq < out[b].Seq })
	return out
}

// WriteText renders the report for humans — shared by the `speedlight
// doctor` subcommand and the /audit?format=text endpoint.
func (r *Report) WriteText(w io.Writer) error {
	cons, incons, incomp := r.Counts()
	if _, err := fmt.Fprintf(w,
		"speedlight audit: %d events, max_id=%d wrap=%v channel_state=%v\n"+
			"snapshots: %d audited — %d consistent, %d inconsistent, %d incomplete, %d disagreement(s)\n",
		r.Events, r.MaxID, r.Wraparound, r.ChannelState,
		len(r.Verdicts), cons, incons, incomp, r.Disagreements); err != nil {
		return err
	}
	if r.Truncated {
		if _, err := fmt.Fprintln(w, "warning: journal is truncated (ring overwrote events); verdicts cover surviving events only"); err != nil {
			return err
		}
	}
	for _, v := range r.Verdicts {
		switch v.Kind {
		case Consistent:
			if _, err := fmt.Fprintf(w, "\nsnapshot %d: CONSISTENT", v.SnapshotID); err != nil {
				return err
			}
			if v.ObserverStricter {
				if _, err := fmt.Fprintf(w, " (observer flagged it inconsistent — its detection is conservative)"); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintln(w); err != nil {
				return err
			}
		default:
			kind := "INCONSISTENT"
			if v.Kind == Incomplete {
				kind = "INCOMPLETE"
			}
			if _, err := fmt.Fprintf(w, "\nsnapshot %d: %s — %s\n", v.SnapshotID, kind, v.Cause); err != nil {
				return err
			}
			if len(v.Stuck) > 0 {
				if _, err := fmt.Fprintf(w, "  stuck: %v\n", v.Stuck); err != nil {
					return err
				}
			}
			for _, ev := range v.Witness {
				if _, err := fmt.Fprintf(w, "  witness: %s\n", ev); err != nil {
					return err
				}
			}
			if v.Disagreement {
				if _, err := fmt.Fprintln(w, "  ** DISAGREEMENT: observer reported this snapshot consistent — likely detection defect **"); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// WriteJSON writes the report as indented JSON — shared by `speedlight
// doctor -json`, the /audit endpoint and the determinism harness, whose
// canonical audit bytes these are.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// HTTPHandler serves the report produced by run as JSON, or the human
// rendering with ?format=text — the /audit endpoint on the telemetry
// mux.
func HTTPHandler(run func() *Report) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rep := run()
		if rep == nil {
			http.Error(w, "no journal attached", http.StatusServiceUnavailable)
			return
		}
		if r.URL.Query().Get("format") == "text" {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			if err := rep.WriteText(w); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
			return
		}
		w.Header().Set("Content-Type", "application/json")
		if err := rep.WriteJSON(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
}
