package node

import (
	"errors"

	"speedlight/internal/audit"
	"speedlight/internal/control"
	"speedlight/internal/dataplane"
	"speedlight/internal/journal"
	"speedlight/internal/observer"
	"speedlight/internal/packet"
	"speedlight/internal/routing"
	"speedlight/internal/sim"
	"speedlight/internal/telemetry"
	"speedlight/internal/topology"
)

// Fabric is everything a wall-clock runtime builds that is not its
// transport: one switch per topology node, routed and gated, and the
// Collector they report to. The runtime decides what a link, a clock
// and a goroutine are — it hands NewFabric each switch's Host and the
// path its results take toward Result, and passes the time in — so a
// Fabric over a recording Host is a whole deployment a test can step.
type Fabric struct {
	dp   dataplane.Config // the snapshot parameters, as every switch has them
	sink *Sink
	col  *Collector
	sws  []*Switch // by NodeID
}

// NewFabric builds the deployment over topo. dp is every switch's data
// plane less what NewFabric fills in per switch (FIB, Telemetry,
// Journal): the snapshot parameters — a zero MaxID means 256 — and
// Metrics. A snapshot incomplete for retryAfter has Retries name its
// missing devices; zero never does. sink takes the assembled snapshots,
// and its Journal is the deployment's: the per-switch rings, the
// observer's, and Audit's. A nil reg disables telemetry in every layer.
//
// attach is called once per switch, in NodeID order, before that switch
// exists: it returns the Host the switch will run on and the function
// that ships its per-unit results toward the observer (and so,
// eventually, into Result).
func NewFabric(topo *topology.Topology, dp dataplane.Config, retryAfter sim.Duration, sink *Sink, reg *telemetry.Registry,
	attach func(*topology.Switch) (Host, func(control.Result), error)) (*Fabric, error) {
	if topo == nil {
		return nil, errors.New("node: nil topology")
	}
	if dp.MaxID == 0 {
		dp.MaxID = 256
	}
	fibs, err := routing.ComputeFIBs(topo)
	if err != nil {
		return nil, err
	}
	utilized := routing.UtilizedPairs(topo, fibs)
	jr := sink.Journal // nil journals nothing, at every level
	jr.Observer().Append(journal.Config(uint64(dp.MaxID), dp.WrapAround, dp.ChannelState))
	f := &Fabric{dp: dp, sink: sink}
	f.col, err = NewCollector(observer.Config{
		MaxID:      dp.MaxID,
		WrapAround: dp.WrapAround,
		RetryAfter: retryAfter,
		Telemetry:  observer.NewTelemetry(reg),
		Journal:    jr.Observer(),
	}, sink)
	if err != nil {
		return nil, err
	}
	dp.Telemetry = dataplane.NewTelemetry(reg)
	cpTel := control.NewTelemetry(reg)
	for _, spec := range topo.Switches {
		host, onResult, err := attach(spec)
		if err != nil {
			return nil, err
		}
		dp.FIB, dp.Journal = fibs[spec.ID], jr.For(int(spec.ID))
		sw, err := New(Config{
			Spec:        spec,
			DP:          dp,
			Utilized:    utilized[spec.ID],
			CPTelemetry: cpTel,
			OnResult:    onResult,
		}, host)
		if err != nil {
			return nil, err
		}
		f.sws = append(f.sws, sw)
		f.col.Register(sw)
	}
	return f, nil
}

// Switch returns one switch, for inspection: whoever the runtime has
// drive it owns everything about it that changes after NewFabric.
func (f *Fabric) Switch(id topology.NodeID) *Switch { return f.sws[id] }

// Journal returns the flight-recorder set, or nil when journaling is
// disabled.
func (f *Fabric) Journal() *journal.Set { return f.sink.Journal }

// Audit replays the journal and verifies every snapshot's consistency
// invariants. Safe while the deployment runs (the rings are dumped
// atomically). Nil when journaling is disabled.
func (f *Fabric) Audit() *audit.Report {
	return audit.Replay(f.sink.Journal, f.dp.MaxID, f.dp.WrapAround, f.dp.ChannelState)
}

// CompletedEpochs returns how many global snapshots the observer has
// assembled. Safe from any goroutine.
func (f *Fabric) CompletedEpochs() uint64 { return f.sink.CompletedEpochs() }

// Snapshots returns the snapshots completed so far.
func (f *Fabric) Snapshots() []*observer.GlobalSnapshot { return f.col.Snapshots() }

// Begin allocates the next snapshot ID; the channel yields the
// assembled snapshot once, then closes. The runtime tells every switch
// to initiate the ID.
func (f *Fabric) Begin(now sim.Time) (packet.SeqID, <-chan *observer.GlobalSnapshot, error) {
	return f.col.Begin(now)
}

// Result ingests one per-unit result: the far end of attach's path.
func (f *Fabric) Result(res control.Result, now sim.Time) { f.col.Result(res, now) }

// Retries runs the observer's recovery timers at now and hands relay
// every (device, snapshot) that is due a re-initiation and a poll — the
// observer asks once per snapshot, so relay must not lose it. Whether
// the re-initiation floods markers is the runtime's liveness policy.
func (f *Fabric) Retries(now sim.Time, relay func(dev topology.NodeID, id packet.SeqID)) {
	for _, act := range f.col.Timeouts(now) {
		for _, dev := range act.Retry {
			relay(dev, act.SnapshotID)
		}
	}
}
