package experiments

import (
	"bytes"
	"strings"
	"testing"
)

func TestAblationInitiators(t *testing.T) {
	r := AblationInitiators(Options{Seed: 4, Quick: true})
	t.Logf("multi: median=%.1f max=%.1f | single: median=%.1f max=%.1f",
		r.Multi.Median(), r.Multi.MaxValue(), r.Single.Median(), r.Single.MaxValue())
	if r.Multi.N() == 0 || r.Single.N() == 0 {
		t.Fatal("empty series")
	}
	// The design choice's payoff: multi-initiator synchronization is
	// markedly tighter, because single-initiator epochs must propagate
	// hop by hop on transit traffic.
	if r.Single.Median() < 2*r.Multi.Median() {
		t.Errorf("single-initiator (%.1f us) should be much worse than multi (%.1f us)",
			r.Single.Median(), r.Multi.Median())
	}
	var buf bytes.Buffer
	r.Table().Fprint(&buf)
	if !strings.Contains(buf.String(), "multi-initiator") {
		t.Error("table rendering")
	}
}

func TestAblationClocks(t *testing.T) {
	r := AblationClocks(Options{Seed: 4, Quick: true})
	t.Logf("perfect=%.1f ptp=%.1f ntp=%.1f (medians, us)",
		r.Perfect.Median(), r.PTP.Median(), r.NTP.Median())
	// Ordering: perfect <= PTP << NTP.
	if r.Perfect.Median() > r.PTP.Median() {
		t.Errorf("perfect clocks (%.1f) should not be worse than PTP (%.1f)",
			r.Perfect.Median(), r.PTP.Median())
	}
	if r.NTP.Median() < 5*r.PTP.Median() {
		t.Errorf("NTP (%.1f us) should be far worse than PTP (%.1f us)",
			r.NTP.Median(), r.PTP.Median())
	}
	// NTP-scale error is what makes measurements incomparable in bursty
	// networks (Section 2.1): hundreds of microseconds to milliseconds.
	if r.NTP.Median() < 100 {
		t.Errorf("NTP median %.1f us implausibly tight", r.NTP.Median())
	}
	var buf bytes.Buffer
	r.Table().Fprint(&buf)
	if !strings.Contains(buf.String(), "PTP") {
		t.Error("table rendering")
	}
}

func TestAblationNotifBuffers(t *testing.T) {
	r := AblationNotifBuffers(Options{Seed: 4, Quick: true})
	if len(r.Points) != 4 {
		t.Fatalf("points = %d", len(r.Points))
	}
	for _, p := range r.Points {
		t.Logf("capacity=%d drops=%d complete=%d", p.Capacity, p.Drops, p.Complete)
	}
	// Drops are monotone non-increasing in buffer size, and the largest
	// buffer absorbs the whole burst.
	for i := 1; i < len(r.Points); i++ {
		if r.Points[i].Drops > r.Points[i-1].Drops {
			t.Errorf("drops grew with buffer size: %d -> %d",
				r.Points[i-1].Drops, r.Points[i].Drops)
		}
	}
	smallest, largest := r.Points[0], r.Points[len(r.Points)-1]
	if smallest.Drops == 0 {
		t.Error("smallest buffer should drop under the burst")
	}
	if largest.Drops != 0 {
		t.Errorf("largest buffer dropped %d notifications", largest.Drops)
	}
	if largest.Complete != r.BurstLen {
		t.Errorf("largest buffer completed %d/%d", largest.Complete, r.BurstLen)
	}
	var buf bytes.Buffer
	r.Table().Fprint(&buf)
	if !strings.Contains(buf.String(), "burst") {
		t.Error("table rendering")
	}
}

func TestAblationPartialDeployment(t *testing.T) {
	r := AblationPartialDeployment(Options{Seed: 4, Quick: true})
	if len(r.Points) != 3 {
		t.Fatalf("points = %d", len(r.Points))
	}
	for _, p := range r.Points {
		t.Logf("disabled=%d units=%d sync=%.1fus consistent=%d/%d",
			p.Disabled, p.Units, p.MedianSyncUs, p.Consistent, p.Total)
		if p.Consistent != p.Total {
			t.Errorf("disabled=%d: only %d/%d consistent", p.Disabled, p.Consistent, p.Total)
		}
		// Partial deployments still synchronize at microsecond scale.
		if p.MedianSyncUs <= 0 || p.MedianSyncUs > 100 {
			t.Errorf("disabled=%d: sync %.1f us out of range", p.Disabled, p.MedianSyncUs)
		}
	}
	// Each disabled spine removes its 4 units (2 ports x 2 directions).
	if r.Points[0].Units != 28 || r.Points[1].Units != 24 || r.Points[2].Units != 20 {
		t.Errorf("unit coverage: %d, %d, %d", r.Points[0].Units, r.Points[1].Units, r.Points[2].Units)
	}
	var buf bytes.Buffer
	r.Table().Fprint(&buf)
	if !strings.Contains(buf.String(), "partial deployment") {
		t.Error("table rendering")
	}
}

// TestShardsRenderIdentically checks the Options.Shards promise on the
// two harnesses that run the shared sync campaign: the parallel engine
// prints exactly what the serial one does.
func TestShardsRenderIdentically(t *testing.T) {
	render := func(shards int) string {
		o := Options{Seed: 3, Shards: shards, Quick: true}
		var buf bytes.Buffer
		Fig9(o).Figure().Fprint(&buf)
		AblationPartialDeployment(o).Table().Fprint(&buf)
		return buf.String()
	}
	serial, sharded := render(0), render(2)
	if serial != sharded {
		t.Errorf("Shards 2 output differs from serial:\n--- serial\n%s\n--- shards 2\n%s", serial, sharded)
	}
}
