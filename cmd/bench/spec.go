package main

import "strings"

// Workload names, in run order.
const (
	wFabricSerial  = "fabric_serial"
	wFabricSharded = "fabric_sharded"
	wStorm         = "snapshot_storm"
	wLive          = "live_chan"
	wWire          = "wire_udp"
)

// runSeconds is the measured part of one workload run, and the
// run_seconds of BENCHMARK.json.
const runSeconds = 18

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloadSpecs = []workloadSpec{
	{wFabricSerial, "Packet-dominated 8x4 leaf-spine on the serial engine: core.OnPacket, dataplane, sim queue and emunet glue do the work, the snapshot path almost none."},
	{wFabricSharded, "Byte-identical inputs on the sharded engine (per-pair clocks, rings): a gain for shards that costs serial, or the reverse, shows; digest must equal fabric_serial's."},
	{wStorm, "Snapshot-dominated 288-port fabric, no data traffic: control, observer and snapstore ingest do the work beside history queries; then the Fig. 10 sustained-rate bisection."},
	{wLive, "Real asynchrony over goroutines and channels on the 2x2x3 testbed: same core/dataplane/control/observer as the DES, different host loop, wall-clock latency."},
	{wWire, "Same closed-loop generator over loopback UDP: adds the datagram codec and syscalls, so a transport gain shows here and not on live_chan."},
}

// Workload groups a metric can be emitted on.
var (
	onAll    = []string{wFabricSerial, wFabricSharded, wStorm, wLive, wWire}
	onDES    = []string{wFabricSerial, wFabricSharded, wStorm}
	onFabric = []string{wFabricSerial, wFabricSharded}
	onRT     = []string{wLive, wWire}
	onPkts   = []string{wFabricSerial, wFabricSharded, wLive, wWire}
	onStorm  = []string{wStorm}
	onShard  = []string{wFabricSharded}
	onLive   = []string{wLive}
	onWire   = []string{wWire}
	// onReg: the runtimes that take a telemetry.Registry. wire.Config
	// has none, so wire_udp reports no registry counts.
	onReg = []string{wFabricSerial, wFabricSharded, wStorm, wLive}
)

// metricSpec names one metric: its unit, which way is better, the
// worsening that counts as a regression (end-to-end metrics only) and
// the workloads that emit it. A metric is absent, not zero, elsewhere.
type metricSpec struct {
	Name   string
	Unit   string
	Better string
	Bound  float64 // share of the baseline median; 0 for per-layer metrics
	On     []string
	// EndToEnd marks the metrics a user of the system sees. Driver
	// marks the subset BENCHMARK.json lists under end_to_end: the
	// benchmark contract wants every end-to-end metric on every
	// workload, never zero and never a value that repeats exactly, so
	// only the host-time metrics all five workloads share go there.
	// The rest are compared by `bench -compare` and reach the driver
	// through the per_layer list.
	EndToEnd bool
	Driver   bool
}

// exact reports whether the metric must repeat exactly on the
// deterministic workloads: it is read from the simulator's clock, or
// it is a count.
func (m metricSpec) exact() bool {
	return strings.HasPrefix(m.Name, "virt_") || m.Unit == "count"
}

func (m metricSpec) on(workload string) bool {
	for _, w := range m.On {
		if w == workload {
			return true
		}
	}
	return false
}

func e2e(name, unit, better string, bound float64, on []string) metricSpec {
	return metricSpec{Name: name, Unit: unit, Better: better, Bound: bound, On: on, EndToEnd: true}
}

func driver(name, unit, better string, bound float64) metricSpec {
	m := e2e(name, unit, better, bound, onAll)
	m.Driver = true
	return m
}

func layer(name, unit, better string, on []string) metricSpec {
	return metricSpec{Name: name, Unit: unit, Better: better, On: on}
}

// hostBound is the bound of every metric read from the wall clock.
const hostBound = 0.25

// specs is the one table of every metric the benchmark prints.
// BENCHMARK.json is generated from it (`bench -spec`) and the test
// suite holds the two equal.
var specs = []metricSpec{
	// End to end. ops_per_s is the workload's unit of work per host
	// second - simulator events on the DES workloads, delivered data
	// packets on the realtime ones - the same "op" alloc_bytes_per_op
	// divides by. events_per_s and packets_per_s name the two readings
	// separately on the workloads that have them.
	//
	// The rates and setup_s are per second of a reference host: sampled
	// per slice and divided by the host speed measured beside the slice
	// (calib.go). Their bounds are 25%, not the 10% the sizing on a quiet
	// box suggested: in a loud spell, such as the driver's host was in,
	// the reference leaves a quarter to a third of a 16-27% plain spread
	// (README, "Noise").
	driver("setup_s", "s", "lower", hostBound),
	driver("ops_per_s", "1/s", "higher", hostBound),
	driver("snapshots_per_s", "1/s", "higher", hostBound),
	// Allocation is not a time, but live_chan's moves with goroutine
	// scheduling: ten seeds have spread 2-4%, so 10% and not the 5%
	// the deterministic workloads alone would allow.
	driver("alloc_bytes_per_op", "B", "lower", 0.10),
	e2e("events_per_s", "1/s", "higher", hostBound, onDES),
	e2e("packets_per_s", "1/s", "higher", hostBound, onPkts),
	e2e("queries_per_s", "1/s", "higher", hostBound, onStorm),
	e2e("snapshot_wall_ms_p50", "ms", "lower", hostBound, onRT),
	e2e("virt_epoch_latency_us_p50", "us", "lower", 0.01, onDES),
	e2e("virt_epoch_latency_us_p99", "us", "lower", 0.01, onStorm),
	e2e("virt_sync_spread_us_p50", "us", "lower", 0.01, onDES),
	e2e("virt_sustained_rate_hz", "Hz", "higher", 0.05, onStorm),
	e2e("failed_share", "share", "lower", 0, onAll),

	// Per layer; layer names are package names.
	layer("core.on_packet_ns", "ns", "lower", onAll),
	layer("core.on_packet_allocs", "allocs/op", "lower", onAll),
	layer("core.busy_share", "share", "lower", onReg),

	layer("dataplane.pipeline_ns", "ns", "lower", onAll),
	layer("dataplane.pipeline_allocs", "allocs/op", "lower", onAll),
	layer("dataplane.packets_ingress", "count", "higher", onReg),
	layer("dataplane.packets_egress", "count", "higher", onReg),
	layer("dataplane.busy_share", "share", "lower", onReg),
	layer("dataplane.notifs_generated", "count", "lower", onReg),
	layer("dataplane.notifs_dropped", "count", "lower", onReg),
	layer("dataplane.notif_queue_high_water", "count", "lower", onReg),
	layer("dataplane.markers", "count", "lower", onReg),
	layer("dataplane.recirculations", "count", "lower", onReg),

	layer("packet.header_codec_ns", "ns", "lower", onAll),
	layer("packet.pool_get_put_ns", "ns", "lower", onAll),

	layer("sim.event_ns", "ns", "lower", onDES),
	layer("sim.event_allocs", "allocs/op", "lower", onDES),
	layer("sim.events", "count", "lower", onDES),
	layer("sim.events_per_packet", "ratio", "lower", onFabric),
	layer("sim.busy_share", "share", "lower", onDES),
	layer("sim.cross_shard_event_ns", "ns", "lower", onShard),
	layer("sim.shard_work_ns", "ns", "lower", onShard),
	layer("sim.shard_wait_ns", "ns", "lower", onShard),
	layer("sim.wait_share", "share", "lower", onShard),
	layer("sim.top_blocked_pair_ns", "ns", "lower", onShard),
	layer("sim.shard_speedup", "ratio", "higher", onShard),

	layer("emunet.new_ms", "ms", "lower", onDES),
	layer("emunet.run_s", "s", "lower", onDES),
	layer("emunet.schedule_snapshot_us", "us", "lower", onDES),
	layer("emunet.packets_injected", "count", "higher", onDES),
	layer("emunet.packets_delivered", "count", "higher", onDES),
	layer("emunet.queue_drops", "count", "lower", onDES),
	layer("emunet.wire_drops", "count", "lower", onDES),
	layer("emunet.queue_high_water", "count", "lower", onDES),
	layer("emunet.residual_share", "share", "lower", onDES),

	layer("control.notification_ns", "ns", "lower", onAll),
	layer("control.initiate_us", "us", "lower", onAll),
	layer("control.notifs_serviced", "count", "lower", onReg),
	layer("control.initiations", "count", "lower", onReg),
	layer("control.reinitiations", "count", "lower", onReg),
	layer("control.polls", "count", "lower", onReg),
	layer("control.results", "count", "higher", onReg),
	layer("control.busy_share", "share", "lower", onReg),

	layer("observer.result_ns", "ns", "lower", onAll),
	layer("observer.snapshots_begun", "count", "higher", onReg),
	layer("observer.snapshots_completed", "count", "higher", onReg),
	layer("observer.retries", "count", "lower", onReg),
	layer("observer.exclusions", "count", "lower", onReg),
	layer("observer.first_try_share", "share", "higher", onReg),
	layer("observer.busy_share", "share", "lower", onReg),

	layer("snapstore.ingest_ns_per_reg", "ns", "lower", onDES),
	layer("snapstore.state_query_us", "us", "lower", onStorm),
	layer("snapstore.diff_query_us", "us", "lower", onStorm),
	layer("snapstore.seals", "count", "higher", onDES),
	layer("snapstore.deltas", "count", "lower", onDES),
	layer("snapstore.bases", "count", "lower", onDES),
	layer("snapstore.promotions", "count", "lower", onDES),
	layer("snapstore.busy_share", "share", "lower", onDES),

	layer("journal.append_ns", "ns", "lower", onAll),
	layer("journal.append_allocs", "allocs/op", "lower", onAll),
	layer("journal.events_appended", "count", "lower", onAll),
	layer("journal.events_overwritten", "count", "lower", onAll),
	layer("journal.events_ms", "ms", "lower", onAll),

	layer("audit.run_ms", "ms", "lower", onAll),
	layer("audit.ns_per_event", "ns", "lower", onAll),
	layer("audit.verdicts_bad", "count", "lower", onAll),
	layer("epochtrace.build_ms", "ms", "lower", onAll),
	layer("epochtrace.ns_per_event", "ns", "lower", onAll),

	layer("telemetry.hotpath_ns", "ns", "lower", onAll),
	layer("trace.overhead_share", "share", "lower", onAll),

	layer("topology.build_ms", "ms", "lower", onAll),

	layer("live.new_ms", "ms", "lower", onLive),
	layer("live.inject_ns", "ns", "lower", onLive),
	layer("live.take_snapshot_us", "us", "lower", onLive),
	layer("live.switch_events", "count", "lower", onLive),
	layer("live.inbox_drops", "count", "lower", onLive),
	layer("live.inbox_high_water", "count", "lower", onLive),
	layer("live.snapshot_wall_ms_p95", "ms", "lower", onLive),
	layer("live.cs_snapshot_wall_ms_p50", "ms", "lower", onLive),

	layer("wire.deploy_ms", "ms", "lower", onWire),
	layer("wire.inject_ns", "ns", "lower", onWire),
	layer("wire.take_snapshot_us", "us", "lower", onWire),
	layer("wire.delivered_share", "share", "higher", onWire),
	layer("wire.snapshot_wall_ms_p95", "ms", "lower", onWire),
	layer("wire.cs_snapshot_wall_ms_p50", "ms", "lower", onWire),

	layer("speedlight.snapshot_us", "us", "lower", onAll),

	layer("process.host_speed", "ratio", "higher", onAll),
	layer("process.peak_rss_mb", "MB", "lower", onAll),
	layer("process.gc_pause_ms", "ms", "lower", onAll),
	layer("process.generator_wait_share", "share", "higher", onRT),
}

var specByName = func() map[string]metricSpec {
	m := make(map[string]metricSpec, len(specs))
	for _, s := range specs {
		if _, dup := m[s.Name]; dup {
			panic("bench: duplicate metric " + s.Name)
		}
		m[s.Name] = s
	}
	return m
}()

// benchmarkJSON is the shape of BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []jsonMetric   `json:"end_to_end"`
	PerLayer   []jsonLayer    `json:"per_layer"`
}

type jsonMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type jsonLayer struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// benchmarkSpec derives BENCHMARK.json from the spec table. The
// driver's end_to_end list is the Driver subset; every other metric
// reaches it through per_layer, failed_share excepted, which the
// driver reads from the result line's attempted and failed.
func benchmarkSpec() benchmarkJSON {
	b := benchmarkJSON{
		Command:    []string{"go", "run", "./cmd/bench"},
		Paths:      []string{"cmd/bench"},
		RunSeconds: runSeconds,
		Workloads:  workloadSpecs,
	}
	for _, s := range specs {
		switch {
		case s.Driver:
			b.EndToEnd = append(b.EndToEnd, jsonMetric{s.Name, s.Unit, s.Better, s.Bound})
		case s.Name != "failed_share":
			b.PerLayer = append(b.PerLayer, jsonLayer{s.Name, s.Unit, s.Better})
		}
	}
	return b
}
