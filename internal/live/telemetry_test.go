package live

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"speedlight/internal/epochtrace"
	"speedlight/internal/journal"
	"speedlight/internal/packet"
	"speedlight/internal/telemetry"
	"speedlight/internal/topology"
)

// httpGet fetches one observability endpoint of a running network.
func httpGet(t *testing.T, n *Network, path string) (int, string) {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("http://%s%s", n.MetricsAddr(), path))
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// TestTelemetryUnderLoad runs a full instrumented deployment — metrics
// server and flight recorder included — with concurrent traffic and
// snapshots, then checks the counters, epoch traces, and HTTP endpoints
// agree with what happened. Under -race this also proves the
// instrumentation is data-race free.
func TestTelemetryUnderLoad(t *testing.T) {
	ls := leafSpine(t)
	var delivered atomic.Int64
	n, err := New(Config{
		Topo:        ls.Topology,
		MetricsAddr: "127.0.0.1:0",
		Journal:     journal.NewSet(0),
		OnDeliver:   func(*packet.Packet, topology.HostID) { delivered.Add(1) },
	})
	if err != nil {
		t.Fatal(err)
	}
	n.Start()
	defer n.Stop()

	if n.Registry() == nil {
		t.Fatal("MetricsAddr did not auto-create a registry")
	}
	if n.MetricsAddr() == "" {
		t.Fatal("metrics server not bound")
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			src := topology.HostID(i % 6)
			dst := topology.HostID((i + 2) % 6)
			n.Inject(src, &packet.Packet{
				DstHost: uint32(dst), SrcPort: uint16(i), DstPort: 80, Proto: 6, Size: 200,
			})
			if i%32 == 0 {
				time.Sleep(20 * time.Microsecond)
			}
		}
	}()
	defer func() { stop.Store(true); wg.Wait() }()

	const rounds = 3
	for i := 0; i < rounds; i++ {
		_, done, err := n.TakeSnapshot(time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("snapshot %d timed out", i)
		}
	}

	// Scrape the endpoints while traffic is still flowing.
	get := func(path string) string {
		code, body := httpGet(t, n, path)
		if code != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, code)
		}
		return body
	}

	prom := get("/metrics")
	for _, want := range []string{
		"speedlight_obs_snapshots_begun_total 3",
		"speedlight_obs_snapshots_completed_total 3",
		"speedlight_dp_packets_ingress_total",
		"speedlight_cp_notifs_serviced_total",
		"speedlight_live_events_total",
		"speedlight_obs_completion_latency_us_bucket",
	} {
		if !strings.Contains(prom, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if vars := get("/debug/vars"); !strings.Contains(vars, "speedlight") {
		t.Error("/debug/vars missing speedlight map")
	}
	var events []struct {
		Name string  `json:"name"`
		Ph   string  `json:"ph"`
		Dur  float64 `json:"dur"`
	}
	if err := json.Unmarshal([]byte(get("/trace")), &events); err != nil {
		t.Fatalf("/trace is not Chrome trace_event JSON: %v", err)
	}
	epochs := 0
	for _, ev := range events {
		if ev.Name == "epoch" && ev.Ph == "X" {
			epochs++
			if ev.Dur <= 0 {
				t.Errorf("/trace epoch span without duration: %+v", ev)
			}
		}
	}
	if epochs != rounds {
		t.Errorf("/trace epoch spans = %d, want %d", epochs, rounds)
	}
	if pprof := get("/debug/pprof/cmdline"); pprof == "" {
		t.Error("/debug/pprof/cmdline empty")
	}

	// Counters must agree with observed facts.
	reg := n.Registry()
	if got := counter(reg, "speedlight_obs_snapshots_begun_total"); got != rounds {
		t.Errorf("begun = %d, want %d", got, rounds)
	}
	lat := reg.Histogram("speedlight_obs_completion_latency_us", "", telemetry.LatencyBucketsUS)
	if got := lat.Count(); got != rounds {
		t.Errorf("completion latency observations = %d, want %d", got, rounds)
	}
	deliveredMetric := reg.Counter("speedlight_live_packets_delivered_total", "")
	if got, saw := deliveredMetric.Value(), delivered.Load(); got == 0 || int64(got) > saw {
		t.Errorf("delivered counter %d disagrees with callback count %d", got, saw)
	}

	// The wall-clock journal rebuilds into one epoch trace per round.
	traces := epochtrace.Build(n.Journal().Events())
	if len(traces) != rounds {
		t.Fatalf("epoch traces = %d, want %d", len(traces), rounds)
	}
	for _, tr := range traces {
		if !tr.Consistent || tr.EndNs <= tr.BeginNs {
			t.Errorf("epoch %d: consistent=%v span [%d, %d]", tr.ID, tr.Consistent, tr.BeginNs, tr.EndNs)
		}
		if len(tr.Switches) != 4 {
			t.Errorf("epoch %d switch traces = %d, want 4", tr.ID, len(tr.Switches))
		}
		if sum := criticalSum(tr); sum != tr.DurationNs() {
			t.Errorf("epoch %d: critical path sums to %d ns, completion latency is %d ns",
				tr.ID, sum, tr.DurationNs())
		}
	}
}

// TestTelemetryWithoutJournal checks the half-wired deployment: a
// metrics server with no flight recorder serves /metrics and answers
// /trace with the mux's explicit "not attached".
func TestTelemetryWithoutJournal(t *testing.T) {
	ls := leafSpine(t)
	n, err := New(Config{Topo: ls.Topology, MetricsAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	n.Start()
	defer n.Stop()
	if code, _ := httpGet(t, n, "/metrics"); code != http.StatusOK {
		t.Errorf("/metrics = %d, want 200", code)
	}
	if code, body := httpGet(t, n, "/trace"); code != http.StatusServiceUnavailable || !strings.Contains(body, "not attached") {
		t.Errorf("/trace without a journal = %d %q, want 503 not attached", code, body)
	}
}

// TestTelemetryDisabledIsNil checks the disabled state: no registry, no
// metrics server — and the network still works.
func TestTelemetryDisabledIsNil(t *testing.T) {
	ls := leafSpine(t)
	n, err := New(Config{Topo: ls.Topology})
	if err != nil {
		t.Fatal(err)
	}
	n.Start()
	defer n.Stop()
	if n.Registry() != nil || n.MetricsAddr() != "" {
		t.Error("telemetry objects exist without opt-in")
	}
	_, done, err := n.TakeSnapshot(time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("snapshot timed out with telemetry disabled")
	}
}

// counter reads one unlabeled counter series of reg, 0 when absent.
func counter(reg *telemetry.Registry, name string) uint64 {
	for _, s := range reg.Gather() {
		if s.Name == name {
			return s.Value
		}
	}
	return 0
}
