package observer

import (
	"testing"

	"speedlight/internal/control"
	"speedlight/internal/dataplane"
	"speedlight/internal/epochtrace"
	"speedlight/internal/journal"
	"speedlight/internal/sim"
	"speedlight/internal/telemetry"
)

// newInstrumentedObs builds an observer with a real registry and a
// journal ring attached, returning the telemetry handles and the ring
// (whose counts are the protocol counters) for assertion.
func newInstrumentedObs(t *testing.T, mod func(*Config)) (*Observer, *Telemetry, *journal.Journal, *[]*GlobalSnapshot) {
	t.Helper()
	tel, jr := NewTelemetry(telemetry.NewRegistry()), journal.New(64)
	o, done := newObs(t, func(c *Config) {
		c.Telemetry, c.Journal = tel, jr
		if mod != nil {
			mod(c)
		}
	})
	return o, tel, jr, done
}

func TestTelemetryRetryAndExclusionCounters(t *testing.T) {
	o, tel, jr, done := newInstrumentedObs(t, func(c *Config) {
		c.RetryAfter = 100
		c.ExcludeAfter = 300
	})
	o.Register(1, unitsOf(1, 1))
	o.Register(2, unitsOf(2, 1))
	o.Register(3, unitsOf(3, 1))
	id, _ := o.Begin(0)
	feedAll(o, id, unitsOf(1, 1), true, 10)

	if got := jr.Count(journal.KindObsBegin, false); got != 1 {
		t.Errorf("Begun = %d", got)
	}
	if got := o.Pending(); got != 1 {
		t.Errorf("Pending = %d", got)
	}

	// Devices 2 and 3 are still missing at the retry deadline.
	o.CheckTimeouts(150)
	if got := jr.Count(journal.KindObsRetry, false); got != 2 {
		t.Errorf("Retries = %d, want 2 (devices 2 and 3)", got)
	}
	if got := jr.Count(journal.KindObsExclude, false); got != 0 {
		t.Errorf("Exclusions = %d before exclude deadline", got)
	}

	// Device 3 reports before the exclusion deadline; only device 2 is
	// dropped.
	feedAll(o, id, unitsOf(3, 1), true, 200)
	o.CheckTimeouts(400)
	if got := jr.Count(journal.KindObsExclude, false); got != 1 {
		t.Errorf("Exclusions = %d, want 1 (device 2)", got)
	}
	if got := jr.Count(journal.KindObsRetry, false); got != 2 {
		t.Errorf("Retries grew to %d after exclusion", got)
	}
	if len(*done) != 1 {
		t.Fatal("snapshot not finalized after exclusion")
	}
	if got := jr.Count(journal.KindObsComplete, true); got != 1 {
		t.Errorf("Completed = %d", got)
	}
	if got := o.Pending(); got != 0 {
		t.Errorf("Pending = %d after completion", got)
	}
	if got := tel.CompletionLatencyUS.Count(); got != 1 {
		t.Errorf("CompletionLatencyUS.Count = %d", got)
	}
}

func TestTelemetryInconsistentAndIgnoredCounters(t *testing.T) {
	o, tel, jr, _ := newInstrumentedObs(t, nil)
	units := unitsOf(1, 1)
	o.Register(1, units)
	id, _ := o.Begin(0)
	o.OnResult(control.Result{Unit: units[0], SnapshotID: id, Consistent: false}, 0)
	// Duplicate and unknown-snapshot results are discarded.
	o.OnResult(control.Result{Unit: units[0], SnapshotID: id, Consistent: true}, 0)
	o.OnResult(control.Result{Unit: units[1], SnapshotID: 42, Consistent: true}, 0)
	o.OnResult(control.Result{Unit: units[1], SnapshotID: id, Consistent: true}, 0)

	if got := jr.Count(journal.KindObsComplete, false) + jr.Count(journal.KindObsComplete, true); got != 1 {
		t.Fatalf("Completed = %d", got)
	}
	if got := jr.Count(journal.KindObsComplete, false); got != 1 {
		t.Errorf("Inconsistent = %d", got)
	}
	if got := tel.ResultsIgnored.Value(); got != 2 {
		t.Errorf("ResultsIgnored = %d, want 2", got)
	}
}

// TestTracerRecordsLifecycle pins the observer's half of the epoch
// trace: its journal stamps are all epochtrace needs to rebuild a
// snapshot's lifecycle span and each device's last accepted result.
func TestTracerRecordsLifecycle(t *testing.T) {
	o, _, jr, _ := newInstrumentedObs(t, nil)
	u1, u2 := unitsOf(1, 1), unitsOf(2, 1)
	o.Register(1, u1)
	o.Register(2, u2)
	id, _ := o.Begin(100)
	// Each result is stamped by its control plane on emission, then
	// accepted by the observer.
	ship := func(units []dataplane.UnitID, at sim.Time) {
		for i, u := range units {
			jr.Append(journal.Result(int64(at), int(u.Node), u.Port, u.Dir.Journal(), id, uint64(i), true))
		}
		feedAll(o, id, units, true, at)
	}
	ship(u1, 200)
	ship(u2, 300)

	traces := epochtrace.Build(jr.Events())
	if len(traces) != 1 {
		t.Fatalf("traces = %d", len(traces))
	}
	tr := traces[0]
	if tr.ID != id || tr.BeginNs != 100 || tr.EndNs != 300 || !tr.Consistent {
		t.Errorf("trace = %+v", tr)
	}
	if len(tr.Switches) != 2 {
		t.Fatalf("switch traces = %d", len(tr.Switches))
	}
	for i, want := range []struct {
		sw      int
		lastObs int64
	}{{1, 200}, {2, 300}} {
		st := tr.Switches[i]
		if st.Switch != want.sw || st.Results != 2 || st.LastObsNs != want.lastObs {
			t.Errorf("switch trace %d = %+v, want switch %d, 2 results, last accepted at %d",
				i, st, want.sw, want.lastObs)
		}
	}
}
