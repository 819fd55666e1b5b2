package observer

import "speedlight/internal/telemetry"

// Telemetry is the observer's metric set beyond its journal events,
// whose counts are its protocol counters (snapshots begun, completed
// and inconsistent, retries, exclusions). Nil fields (or a nil
// Config.Telemetry) are no-ops.
type Telemetry struct {
	// ResultsIgnored counts per-unit results discarded as duplicate,
	// spurious, or arriving after exclusion.
	ResultsIgnored *telemetry.Counter
	// CompletionLatencyUS observes, per completed snapshot, the
	// microseconds between scheduling and global assembly — the
	// paper's completion-latency evaluation axis.
	CompletionLatencyUS *telemetry.Histogram
}

// NewTelemetry registers the observer metric families on reg and
// returns the resolved handles. A nil registry yields no-op metrics.
func NewTelemetry(reg *telemetry.Registry) *Telemetry {
	return &Telemetry{
		ResultsIgnored: reg.Counter("speedlight_obs_results_ignored_total", "per-unit results discarded as duplicate or spurious"),
		CompletionLatencyUS: reg.Histogram("speedlight_obs_completion_latency_us",
			"snapshot completion latency, scheduling to assembly (microseconds)", telemetry.LatencyBucketsUS),
	}
}

var nopTelemetry = &Telemetry{}
