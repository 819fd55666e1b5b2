package telemetry

import (
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// expvarReg is the registry behind the process-wide "speedlight"
// expvar. expvar.Publish is permanent and panics on duplicates, so the
// variable is published once and indirects through this pointer —
// tests and successive runs can swap registries freely.
var (
	expvarReg  atomic.Pointer[Registry]
	expvarOnce sync.Once
)

// PublishExpvar exposes the registry under the "speedlight" expvar,
// alongside the standard memstats/cmdline variables on /debug/vars.
// Safe to call repeatedly; the latest registry wins.
func PublishExpvar(r *Registry) {
	expvarReg.Store(r)
	expvarOnce.Do(func() {
		expvar.Publish("speedlight", expvar.Func(func() any {
			reg := expvarReg.Load()
			if reg == nil {
				return nil
			}
			return reg.JSONValue()
		}))
	})
}

// NowNs returns the current wall-clock time in nanoseconds. It exists
// so deterministic packages (sim, emunet) can take wall time as an
// injected dependency — e.g. sim.(*Parallel).EnableBarrierMetrics —
// without ever calling time.Now themselves.
func NowNs() int64 { return time.Now().UnixNano() }

// Handler returns an http.Handler serving the registry in Prometheus
// text format.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}

// Health tracks process liveness and readiness for /healthz and
// /readyz. Liveness (/healthz) passes whenever every registered check
// passes; readiness (/readyz) additionally requires SetReady(true) —
// runtimes flip it once their goroutines are launched and clear it on
// shutdown. All methods are safe on a nil receiver and for concurrent
// use.
type Health struct {
	ready  atomic.Bool
	mu     sync.Mutex
	checks map[string]func() error
}

// NewHealth returns a Health in the not-ready state with no checks.
func NewHealth() *Health { return &Health{} }

// SetReady flips the readiness gate.
func (h *Health) SetReady(ok bool) {
	if h == nil {
		return
	}
	h.ready.Store(ok)
}

// Ready reports the readiness gate. A nil Health is always ready.
func (h *Health) Ready() bool {
	if h == nil {
		return true
	}
	return h.ready.Load()
}

// AddCheck registers a named liveness check. The function is called on
// every /healthz and /readyz request; a non-nil error marks the probe
// failed. Re-registering a name replaces the previous check.
func (h *Health) AddCheck(name string, fn func() error) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.checks == nil {
		h.checks = make(map[string]func() error)
	}
	h.checks[name] = fn
}

// failures runs every check and returns "name: error" lines, sorted.
func (h *Health) failures() []string {
	if h == nil {
		return nil
	}
	h.mu.Lock()
	names := make([]string, 0, len(h.checks))
	for name := range h.checks {
		names = append(names, name)
	}
	sort.Strings(names)
	fns := make([]func() error, len(names))
	for i, name := range names {
		fns[i] = h.checks[name]
	}
	h.mu.Unlock()
	var fails []string
	for i, fn := range fns {
		if err := fn(); err != nil {
			fails = append(fails, fmt.Sprintf("%s: %v", names[i], err))
		}
	}
	return fails
}

// serveProbe writes a probe response: 200 "ok" on success, 503 with
// one failure reason per line otherwise.
func serveProbe(w http.ResponseWriter, fails []string) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if len(fails) == 0 {
		fmt.Fprintln(w, "ok")
		return
	}
	w.WriteHeader(http.StatusServiceUnavailable)
	for _, f := range fails {
		fmt.Fprintln(w, f)
	}
}

// MuxConfig parameterizes the observability endpoint set. Every field
// is optional.
type MuxConfig struct {
	Registry *Registry
	// Health backs /healthz and /readyz. Nil serves both as always
	// passing (a process answering HTTP is trivially live).
	Health *Health
	// Journal, when set, is mounted at /journal (the flight-recorder
	// event stream; see internal/journal.HTTPHandler).
	Journal http.Handler
	// Audit, when set, is mounted at /audit (the causal-consistency
	// audit report; see internal/audit.HTTPHandler).
	Audit http.Handler
	// Snapshots, when set, is mounted at /snapshots and /snapshots/
	// (the snapshot-history query plane; see
	// internal/snapstore.HTTPHandler).
	Snapshots http.Handler
	// Invariants, when set, is mounted at /invariants (invariant status
	// and violation history; see internal/invariant.HTTPHandler).
	Invariants http.Handler
	// EpochTrace, when set, is mounted at /trace, /trace/epoch and
	// /trace/critical (the journal-derived per-epoch causal traces and
	// critical-path rollups; see internal/epochtrace.HTTPHandler).
	EpochTrace http.Handler
}

// notAttached serves the uniform 503 for endpoints whose backing
// subsystem was not wired into this process. Every data endpoint is
// always mounted — registration order and partial configs can never
// turn a known path into a 404 or a panic, only into an explicit
// "not attached".
func notAttached(name string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, name+" not attached", http.StatusServiceUnavailable)
	})
}

// orNotAttached mounts h, or the 503 fallback when h is nil.
func orNotAttached(mux *http.ServeMux, pattern string, h http.Handler, name string) {
	if h == nil {
		h = notAttached(name)
	}
	mux.Handle(pattern, h)
}

// NewMuxConfig builds the observability endpoint set:
//
//	/metrics           Prometheus text format
//	/debug/vars        expvar JSON (registry published as "speedlight")
//	/debug/pprof/...   net/http/pprof profiles
//	/healthz           liveness probe (200 ok / 503 + failing checks)
//	/readyz            readiness probe (liveness + SetReady gate)
//	/journal           flight-recorder events
//	/audit             consistency audit report
//	/snapshots         snapshot-history query plane
//	/invariants        invariant status + violations
//	/trace             Chrome trace_event JSON of every traced epoch
//	/trace/epoch       per-epoch causal traces
//	/trace/critical    critical-path rollup
//
// A nil Registry serves an empty /metrics. The data endpoints (journal,
// audit, snapshots, invariants, trace) are always mounted; those
// without a configured handler answer 503 "not attached" rather than
// 404, so a half-wired process degrades explicitly instead of
// surprisingly.
func NewMuxConfig(cfg MuxConfig) *http.ServeMux {
	PublishExpvar(cfg.Registry)
	mux := http.NewServeMux()
	mux.Handle("/metrics", cfg.Registry.Handler())
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	health := cfg.Health
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		serveProbe(w, health.failures())
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) {
		fails := health.failures()
		if !health.Ready() {
			fails = append(fails, "ready: not ready")
		}
		serveProbe(w, fails)
	})
	orNotAttached(mux, "/journal", cfg.Journal, "journal")
	orNotAttached(mux, "/audit", cfg.Audit, "audit")
	// Both snapshot patterns: the exact path for list/state queries and
	// the subtree for /snapshots/diff.
	orNotAttached(mux, "/snapshots", cfg.Snapshots, "snapshot store")
	orNotAttached(mux, "/snapshots/", cfg.Snapshots, "snapshot store")
	orNotAttached(mux, "/invariants", cfg.Invariants, "invariant engine")
	orNotAttached(mux, "/trace", cfg.EpochTrace, "epoch tracer")
	orNotAttached(mux, "/trace/epoch", cfg.EpochTrace, "epoch tracer")
	orNotAttached(mux, "/trace/critical", cfg.EpochTrace, "epoch tracer")
	return mux
}

// Server is a running observability HTTP server.
type Server struct {
	ln   net.Listener
	srv  *http.Server
	done chan struct{}
}

// ServeConfig starts the observability endpoints described by cfg on
// addr (e.g. ":9090"). It returns once the listener is bound; requests
// are served in a background goroutine until Close. The server carries
// connection timeouts so a stalled or malicious client cannot pin
// goroutines forever; the write timeout is generous because
// /debug/pprof/profile streams for its full profiling window (30s by
// default).
func ServeConfig(addr string, cfg MuxConfig) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: listen %s: %w", addr, err)
	}
	s := &Server{
		ln: ln,
		srv: &http.Server{
			Handler:           NewMuxConfig(cfg),
			ReadHeaderTimeout: 5 * time.Second,
			ReadTimeout:       10 * time.Second,
			WriteTimeout:      2 * time.Minute,
			IdleTimeout:       time.Minute,
		},
		done: make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(ln)
	}()
	return s, nil
}

// Addr returns the bound listen address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close shuts the server down. Safe on a nil server.
func (s *Server) Close() error {
	if s == nil {
		return nil
	}
	err := s.srv.Close()
	<-s.done
	return err
}
