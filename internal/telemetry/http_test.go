package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func probe(t *testing.T, mux *http.ServeMux, path string) (int, string) {
	t.Helper()
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	return rec.Code, rec.Body.String()
}

func TestHealthzDefaultMux(t *testing.T) {
	// A mux without an explicit Health serves both probes passing: a
	// process answering HTTP is trivially live, and nothing gates it.
	mux := NewMuxConfig(MuxConfig{Registry: NewRegistry()})
	if code, body := probe(t, mux, "/healthz"); code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Fatalf("/healthz = %d %q, want 200 ok", code, body)
	}
	if code, _ := probe(t, mux, "/readyz"); code != http.StatusOK {
		t.Fatalf("/readyz = %d, want 200", code)
	}
}

func TestReadyzBothStates(t *testing.T) {
	h := NewHealth()
	mux := NewMuxConfig(MuxConfig{Health: h})

	// Not ready until the runtime says so.
	if code, body := probe(t, mux, "/readyz"); code != http.StatusServiceUnavailable || !strings.Contains(body, "not ready") {
		t.Fatalf("/readyz before SetReady = %d %q, want 503 not ready", code, body)
	}
	// Liveness is independent of readiness.
	if code, _ := probe(t, mux, "/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz before SetReady = %d, want 200", code)
	}

	h.SetReady(true)
	if code, body := probe(t, mux, "/readyz"); code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Fatalf("/readyz after SetReady = %d %q, want 200 ok", code, body)
	}

	// Shutdown flips it back.
	h.SetReady(false)
	if code, _ := probe(t, mux, "/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz after SetReady(false) = %d, want 503", code)
	}
}

func TestHealthChecksBothStates(t *testing.T) {
	h := NewHealth()
	h.SetReady(true)
	failing := false
	h.AddCheck("observer", func() error {
		if failing {
			return fmt.Errorf("stalled")
		}
		return nil
	})
	mux := NewMuxConfig(MuxConfig{Health: h})

	if code, _ := probe(t, mux, "/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz with passing check = %d, want 200", code)
	}
	if code, _ := probe(t, mux, "/readyz"); code != http.StatusOK {
		t.Fatalf("/readyz with passing check = %d, want 200", code)
	}

	failing = true
	if code, body := probe(t, mux, "/healthz"); code != http.StatusServiceUnavailable || !strings.Contains(body, "observer: stalled") {
		t.Fatalf("/healthz with failing check = %d %q, want 503 observer: stalled", code, body)
	}
	if code, body := probe(t, mux, "/readyz"); code != http.StatusServiceUnavailable || !strings.Contains(body, "observer: stalled") {
		t.Fatalf("/readyz with failing check = %d %q, want 503", code, body)
	}
}

func TestHealthNilReceiver(t *testing.T) {
	var h *Health
	h.SetReady(true)
	h.AddCheck("x", func() error { return nil })
	if !h.Ready() {
		t.Fatal("nil Health must report ready")
	}
	if fails := h.failures(); fails != nil {
		t.Fatalf("nil Health failures = %v, want nil", fails)
	}
}

func TestMuxJournalAuditRoutes(t *testing.T) {
	mux := NewMuxConfig(MuxConfig{
		Journal: http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) { io.WriteString(w, "jr") }),
		Audit:   http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) { io.WriteString(w, "au") }),
	})
	if _, body := probe(t, mux, "/journal"); body != "jr" {
		t.Fatalf("/journal body = %q", body)
	}
	if _, body := probe(t, mux, "/audit"); body != "au" {
		t.Fatalf("/audit body = %q", body)
	}
	// Absent handlers answer 503 "not attached" rather than 404.
	bare := NewMuxConfig(MuxConfig{Registry: NewRegistry()})
	if code, _ := probe(t, bare, "/journal"); code != http.StatusServiceUnavailable {
		t.Fatalf("/journal on bare mux = %d, want 503", code)
	}
}

func TestServeTimeoutsConfigured(t *testing.T) {
	srv, err := ServeConfig("127.0.0.1:0", MuxConfig{Registry: NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if srv.srv.ReadHeaderTimeout <= 0 || srv.srv.ReadTimeout <= 0 ||
		srv.srv.WriteTimeout <= 0 || srv.srv.IdleTimeout <= 0 {
		t.Fatalf("server missing timeouts: %+v", srv.srv)
	}
	resp, err := http.Get("http://" + srv.Addr() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz over the wire = %d, want 200", resp.StatusCode)
	}
}

func TestServeEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("up_total", "liveness").Inc()
	srv, err := ServeConfig("127.0.0.1:0", MuxConfig{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) string {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	if out := get("/metrics"); !strings.Contains(out, "up_total 1") {
		t.Fatalf("/metrics missing counter:\n%s", out)
	}
	vars := get("/debug/vars")
	var decoded map[string]json.RawMessage
	if err := json.Unmarshal([]byte(vars), &decoded); err != nil {
		t.Fatalf("/debug/vars not JSON: %v", err)
	}
	if _, ok := decoded["speedlight"]; !ok {
		t.Fatalf("/debug/vars missing speedlight var: %s", vars)
	}
	if out := get("/debug/pprof/cmdline"); out == "" {
		t.Fatal("/debug/pprof/cmdline empty")
	}
}
