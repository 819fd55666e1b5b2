package dataplane

import "speedlight/internal/telemetry"

// Telemetry is the data plane's metric set: what no journal event
// counts. Notifications generated and dropped, and snapshot-ID
// rollovers, are journal events, counted by the switch's ring
// (Config.Journal). All fields are optional: nil counters are no-ops
// (the telemetry package's zero-overhead-when-disabled contract), so a
// zero Telemetry — or a nil Config.Telemetry, which New replaces with
// one — disables instrumentation without branching beyond a nil check
// per update.
//
// One Telemetry may be shared by every switch of a network; all
// updates are atomic.
type Telemetry struct {
	// PacketsIngress and PacketsEgress count processing-unit
	// traversals (the per-packet hot path).
	PacketsIngress *telemetry.Counter
	PacketsEgress  *telemetry.Counter
	// NotifQueueHighWater tracks the deepest the CPU notification
	// queue has been.
	NotifQueueHighWater *telemetry.Gauge
	// Markers counts control-plane marker packets processed
	// (IngressOnly and IngressFromCP, the Section 6 liveness path).
	Markers *telemetry.Counter
	// Initiations counts initiation messages run through ingress units
	// (one per port per Initiate call, Section 6).
	Initiations *telemetry.Counter
}

// NewTelemetry registers the data-plane metric families on reg and
// returns the resolved handles. A nil registry yields all-nil (no-op)
// metrics.
func NewTelemetry(reg *telemetry.Registry) *Telemetry {
	return &Telemetry{
		PacketsIngress:      reg.Counter("speedlight_dp_packets_ingress_total", "packets processed by ingress units"),
		PacketsEgress:       reg.Counter("speedlight_dp_packets_egress_total", "packets processed by egress units"),
		NotifQueueHighWater: reg.Gauge("speedlight_dp_notif_queue_high_water", "deepest CPU notification queue occupancy"),
		Markers:             reg.Counter("speedlight_dp_markers_total", "control-plane marker packets processed"),
		Initiations:         reg.Counter("speedlight_dp_initiations_total", "initiation messages processed at ingress units"),
	}
}

// nopTelemetry backs switches configured without telemetry; its nil
// fields make every update a no-op.
var nopTelemetry = &Telemetry{}
