package audit

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"

	"speedlight/internal/journal"
	"speedlight/internal/packet"
)

// seq stamps events with sequence numbers in slice order, as a shared
// journal.Set sequencer would.
func seq(evs ...journal.Event) []journal.Event {
	for i := range evs {
		evs[i].Seq = uint64(i + 1)
	}
	return evs
}

func verdictFor(t *testing.T, rep *Report, id packet.SeqID) Verdict {
	t.Helper()
	for _, v := range rep.Verdicts {
		if v.SnapshotID == id {
			return v
		}
	}
	t.Fatalf("no verdict for snapshot %d in %+v", id, rep.Verdicts)
	return Verdict{}
}

func TestCleanSnapshotAuditsConsistent(t *testing.T) {
	evs := seq(
		journal.Config(256, true, false),
		journal.Register(0, 0, journal.DirIngress),
		journal.Register(1, 0, journal.DirIngress),
		journal.ObsBegin(100, 1),
		journal.Record(110, 0, 0, journal.DirIngress, -1, 0, 1, 1),
		journal.Record(120, 1, 0, journal.DirIngress, 0, 0, 1, 1),
		journal.ObsResult(130, 0, 0, journal.DirIngress, 1, true),
		journal.ObsResult(140, 1, 0, journal.DirIngress, 1, true),
		journal.ObsComplete(150, 1, true, 0),
	)
	rep := Run(evs, Config{})
	if rep.MaxID != 256 || !rep.Wraparound || rep.ChannelState {
		t.Fatalf("config not picked up from journal: %+v", rep)
	}
	v := verdictFor(t, rep, 1)
	if v.Kind != Consistent || v.Disagreement || v.ObserverStricter {
		t.Fatalf("verdict = %+v, want clean Consistent", v)
	}
	if !v.ObserverSeen || !v.ObserverConsistent {
		t.Fatalf("observer cross-check missing: %+v", v)
	}
	if rep.Truncated || rep.Disagreements != 0 {
		t.Fatalf("report = %+v", rep)
	}
}

func TestSkippedIDInChannelStateModeIsInconsistent(t *testing.T) {
	evs := seq(
		journal.Config(256, true, true),
		journal.Register(0, 0, journal.DirIngress),
		journal.ObsBegin(100, 1),
		journal.ObsBegin(101, 2),
		// The unit jumps 0 -> 2, skipping snapshot 1 entirely.
		journal.Record(110, 0, 0, journal.DirIngress, 0, 0, 2, 2),
		journal.ObsResult(130, 0, 0, journal.DirIngress, 1, true),
		journal.ObsResult(131, 0, 0, journal.DirIngress, 2, true),
		// Observer (wrongly, for this synthetic stream) calls 1 consistent.
		journal.ObsComplete(150, 1, true, 0),
		journal.ObsComplete(151, 2, true, 0),
	)
	rep := Run(evs, Config{})
	v := verdictFor(t, rep, 1)
	if v.Kind != Inconsistent {
		t.Fatalf("verdict = %+v, want Inconsistent", v)
	}
	if !strings.Contains(v.Cause, "skipped snapshot 1") {
		t.Fatalf("cause = %q", v.Cause)
	}
	if len(v.Witness) != 1 || v.Witness[0].Kind != journal.KindRecord {
		t.Fatalf("witness = %+v, want the skipping record", v.Witness)
	}
	if !v.Disagreement || rep.Disagreements != 1 {
		t.Fatalf("disagreement not flagged: %+v", v)
	}
	if v2 := verdictFor(t, rep, 2); v2.Kind != Consistent {
		t.Fatalf("snapshot 2 = %+v, want Consistent", v2)
	}
}

func TestSkippedIDWithoutChannelStateIsConsistent(t *testing.T) {
	evs := seq(
		journal.Config(256, true, false),
		journal.Register(0, 0, journal.DirIngress),
		journal.ObsBegin(100, 1),
		journal.ObsBegin(101, 2),
		journal.Record(110, 0, 0, journal.DirIngress, 0, 0, 2, 2),
		journal.ObsResult(130, 0, 0, journal.DirIngress, 1, true),
		journal.ObsResult(131, 0, 0, journal.DirIngress, 2, true),
		journal.ObsComplete(150, 1, true, 0),
		journal.ObsComplete(151, 2, true, 0),
	)
	rep := Run(evs, Config{})
	if v := verdictFor(t, rep, 1); v.Kind != Consistent {
		t.Fatalf("verdict = %+v; without channel state a skipped ID inherits its value", v)
	}
}

func TestAbsorbAcrossCutsIsInconsistent(t *testing.T) {
	evs := seq(
		journal.Config(256, true, true),
		journal.Register(0, 0, journal.DirIngress),
		journal.ObsBegin(100, 6),
		journal.ObsBegin(101, 7),
		journal.ObsBegin(102, 8),
		// A packet stamped at cut 5 is absorbed into cut 8: cuts 6 and 7
		// were crossed uncounted.
		journal.Absorb(110, 0, 0, journal.DirIngress, 1, 5, 8),
		journal.ObsResult(120, 0, 0, journal.DirIngress, 6, true),
		journal.ObsResult(121, 0, 0, journal.DirIngress, 7, true),
		journal.ObsResult(122, 0, 0, journal.DirIngress, 8, true),
		journal.ObsComplete(130, 6, true, 0),
		journal.ObsComplete(131, 7, true, 0),
		journal.ObsComplete(132, 8, true, 0),
	)
	rep := Run(evs, Config{})
	for _, id := range []packet.SeqID{6, 7} {
		v := verdictFor(t, rep, id)
		if v.Kind != Inconsistent {
			t.Fatalf("snapshot %d = %+v, want Inconsistent", id, v)
		}
		if len(v.Witness) != 1 || v.Witness[0].Kind != journal.KindAbsorb {
			t.Fatalf("snapshot %d witness = %+v", id, v.Witness)
		}
	}
	if v := verdictFor(t, rep, 8); v.Kind != Consistent {
		t.Fatalf("snapshot 8 = %+v; the absorbing cut itself is fine", v)
	}
	if rep.Disagreements != 2 {
		t.Fatalf("Disagreements = %d, want 2", rep.Disagreements)
	}
}

func TestAbsorbMissIsInconsistent(t *testing.T) {
	evs := seq(
		journal.Config(256, true, true),
		journal.Register(0, 0, journal.DirIngress),
		journal.ObsBegin(100, 4),
		journal.AbsorbMiss(110, 0, 0, journal.DirIngress, 1, 3, 4),
		journal.ObsResult(120, 0, 0, journal.DirIngress, 4, true),
		journal.ObsComplete(130, 4, true, 0),
	)
	rep := Run(evs, Config{})
	v := verdictFor(t, rep, 4)
	if v.Kind != Inconsistent || !strings.Contains(v.Cause, "lost") {
		t.Fatalf("verdict = %+v, want Inconsistent channel-state loss", v)
	}
}

func TestNeverFinalizedSnapshotIsIncompleteWithStuckUnits(t *testing.T) {
	evs := seq(
		journal.Config(256, true, false),
		journal.Register(0, 0, journal.DirIngress),
		journal.Register(1, 0, journal.DirIngress),
		journal.ObsBegin(100, 3),
		journal.Record(110, 0, 0, journal.DirIngress, -1, 2, 3, 3),
		journal.ObsResult(120, 0, 0, journal.DirIngress, 3, true),
		// Switch 1's notification never arrives; the dataplane dropped it.
		journal.NotifDropped(115, 1, 0, journal.DirIngress, 3),
	)
	rep := Run(evs, Config{})
	v := verdictFor(t, rep, 3)
	if v.Kind != Incomplete {
		t.Fatalf("verdict = %+v, want Incomplete", v)
	}
	if len(v.Stuck) != 1 || v.Stuck[0] != "sw1/port0/ingress" {
		t.Fatalf("stuck = %v", v.Stuck)
	}
	if len(v.Witness) != 1 || v.Witness[0].Kind != journal.KindNotifDrop {
		t.Fatalf("witness = %+v, want the dropped notification", v.Witness)
	}
}

func TestExcludedDevicesMakeSnapshotIncomplete(t *testing.T) {
	evs := seq(
		journal.Config(256, true, false),
		journal.Register(0, 0, journal.DirIngress),
		journal.Register(1, 0, journal.DirIngress),
		journal.ObsBegin(100, 5),
		journal.Record(105, 0, 0, journal.DirIngress, -1, 4, 5, 5),
		journal.ObsResult(110, 0, 0, journal.DirIngress, 5, true),
		journal.ObsRetry(120, 5, 1),
		journal.ObsExclude(130, 5, 1),
		journal.ObsComplete(140, 5, true, 1),
	)
	rep := Run(evs, Config{})
	v := verdictFor(t, rep, 5)
	if v.Kind != Incomplete || !strings.Contains(v.Cause, "excluded") {
		t.Fatalf("verdict = %+v, want Incomplete via exclusion", v)
	}
	if len(v.Stuck) != 1 || v.Stuck[0] != "sw1" {
		t.Fatalf("stuck = %v", v.Stuck)
	}
	if len(v.Witness) == 0 || v.Witness[0].Kind != journal.KindObsExclude {
		t.Fatalf("witness = %+v", v.Witness)
	}
}

func TestRolloverWindowViolation(t *testing.T) {
	evs := seq(
		journal.Config(16, true, false),
		journal.Register(0, 0, journal.DirIngress),
		journal.ObsBegin(100, 1),
		// Snapshot 1 is still open when snapshot 9 begins: 9-1 >= 16/2.
		journal.ObsBegin(200, 9),
	)
	rep := Run(evs, Config{})
	v := verdictFor(t, rep, 9)
	if v.Kind != Inconsistent || !strings.Contains(v.Cause, "rollover window") {
		t.Fatalf("verdict = %+v, want rollover-window violation", v)
	}
	if len(v.Witness) != 2 {
		t.Fatalf("witness = %+v, want both ObsBegin events", v.Witness)
	}
}

func TestIDRegressionIsInconsistent(t *testing.T) {
	evs := seq(
		journal.Config(256, true, false),
		journal.Register(0, 0, journal.DirIngress),
		journal.ObsBegin(100, 2),
		journal.Record(110, 0, 0, journal.DirIngress, 0, 0, 2, 2),
		journal.Record(120, 0, 0, journal.DirIngress, 0, 1, 2, 2),
		journal.ObsResult(130, 0, 0, journal.DirIngress, 2, true),
		journal.ObsComplete(140, 2, true, 0),
	)
	rep := Run(evs, Config{})
	v := verdictFor(t, rep, 2)
	if v.Kind != Inconsistent || !strings.Contains(v.Cause, "regressed") {
		t.Fatalf("verdict = %+v, want ID regression", v)
	}
}

func TestChainGapMarksReportTruncated(t *testing.T) {
	evs := seq(
		journal.Config(256, true, false),
		journal.Register(0, 0, journal.DirIngress),
		journal.ObsBegin(100, 6),
		journal.Record(110, 0, 0, journal.DirIngress, 0, 0, 1, 1),
		// Ring overwrote records 2..5.
		journal.Record(120, 0, 0, journal.DirIngress, 0, 5, 6, 6),
		journal.ObsResult(130, 0, 0, journal.DirIngress, 6, true),
		journal.ObsComplete(140, 6, true, 0),
	)
	rep := Run(evs, Config{})
	if !rep.Truncated {
		t.Fatal("report should be marked Truncated")
	}
	if v := verdictFor(t, rep, 6); v.Kind != Consistent {
		t.Fatalf("verdict = %+v; a journal gap alone is not a violation", v)
	}
}

func TestObserverStricterIsNotedNotCountedAsDisagreement(t *testing.T) {
	evs := seq(
		journal.Config(256, true, false),
		journal.Register(0, 0, journal.DirIngress),
		journal.ObsBegin(100, 1),
		journal.Record(110, 0, 0, journal.DirIngress, -1, 0, 1, 1),
		journal.ObsResult(120, 0, 0, journal.DirIngress, 1, false),
		journal.ObsComplete(130, 1, false, 0),
	)
	rep := Run(evs, Config{})
	v := verdictFor(t, rep, 1)
	if v.Kind != Consistent || !v.ObserverStricter || v.Disagreement {
		t.Fatalf("verdict = %+v, want Consistent + ObserverStricter", v)
	}
	if rep.Disagreements != 0 {
		t.Fatalf("Disagreements = %d, want 0", rep.Disagreements)
	}
}

func TestConfigFallbackWhenJournalHasNoConfigEvent(t *testing.T) {
	evs := seq(
		journal.Register(0, 0, journal.DirIngress),
		journal.ObsBegin(100, 1),
		journal.ObsBegin(101, 2),
		journal.Record(110, 0, 0, journal.DirIngress, 0, 0, 2, 2),
		journal.ObsResult(120, 0, 0, journal.DirIngress, 2, true),
		journal.ObsComplete(130, 1, true, 0),
		journal.ObsComplete(131, 2, true, 0),
	)
	rep := Run(evs, Config{MaxID: 64, Wraparound: true, ChannelState: true})
	if rep.MaxID != 64 || !rep.ChannelState {
		t.Fatalf("fallback config ignored: %+v", rep)
	}
	if v := verdictFor(t, rep, 1); v.Kind != Inconsistent {
		t.Fatalf("verdict = %+v, want skip flagged under fallback CS config", v)
	}
}

func TestWriteTextRendersVerdictsAndWitnesses(t *testing.T) {
	evs := seq(
		journal.Config(256, true, true),
		journal.Register(0, 0, journal.DirIngress),
		journal.ObsBegin(100, 1),
		journal.ObsBegin(101, 2),
		journal.Record(110, 0, 0, journal.DirIngress, 0, 0, 2, 2),
		journal.ObsResult(120, 0, 0, journal.DirIngress, 2, true),
		journal.ObsComplete(130, 1, true, 0),
		journal.ObsComplete(131, 2, true, 0),
	)
	rep := Run(evs, Config{})
	var buf bytes.Buffer
	if err := rep.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"snapshots: 2 audited",
		"snapshot 1: INCONSISTENT",
		"witness:",
		"DISAGREEMENT",
		"snapshot 2: CONSISTENT",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("WriteText output missing %q:\n%s", want, out)
		}
	}
}

func TestHTTPHandler(t *testing.T) {
	rep := Run(seq(
		journal.Config(256, true, false),
		journal.Register(0, 0, journal.DirIngress),
		journal.ObsBegin(100, 1),
		journal.Record(110, 0, 0, journal.DirIngress, -1, 0, 1, 1),
		journal.ObsResult(120, 0, 0, journal.DirIngress, 1, true),
		journal.ObsComplete(130, 1, true, 0),
	), Config{})
	h := HTTPHandler(func() *Report { return rep })

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/audit", nil))
	var got Report
	if err := json.NewDecoder(rec.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if len(got.Verdicts) != 1 || got.Verdicts[0].SnapshotID != 1 {
		t.Fatalf("JSON endpoint: %+v", got)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/audit?format=text", nil))
	if !strings.Contains(rec.Body.String(), "snapshot 1: CONSISTENT") {
		t.Fatalf("text endpoint: %q", rec.Body.String())
	}

	h = HTTPHandler(func() *Report { return nil })
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/audit", nil))
	if rec.Code != 503 {
		t.Fatalf("nil report should 503, got %d", rec.Code)
	}
}

func TestAuditExports(t *testing.T) {
	rep := Run(seq(
		journal.Config(256, true, true),
		journal.Register(0, 1, journal.DirIngress),
		journal.ObsBegin(1000, 1),
		journal.Record(1500, 0, 1, journal.DirIngress, 4, 0, 1, 1),
		journal.Absorb(1600, 0, 1, journal.DirIngress, 4, 0, 1),
		journal.NotifDropped(1700, 0, 1, journal.DirIngress, 1),
		journal.ObsComplete(2000, 1, true, 0),
	), Config{})
	var js bytes.Buffer
	if err := rep.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(js.Bytes(), &back); err != nil {
		t.Fatalf("WriteJSON output does not parse: %v", err)
	}
	if len(back.Verdicts) != len(rep.Verdicts) {
		t.Fatalf("verdicts lost in JSON: got %d want %d", len(back.Verdicts), len(rep.Verdicts))
	}
	// The /audit endpoint serves the same bytes.
	rec := httptest.NewRecorder()
	HTTPHandler(func() *Report { return rep }).ServeHTTP(rec, httptest.NewRequest("GET", "/audit", nil))
	if !bytes.Equal(rec.Body.Bytes(), js.Bytes()) {
		t.Fatalf("/audit differs from WriteJSON:\n%s\nvs\n%s", rec.Body.Bytes(), js.Bytes())
	}
}
