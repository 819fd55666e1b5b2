package node

import (
	"errors"
	"sync"

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
// observer they report to. The runtime decides what a link, a clock and
// a goroutine are — it hands NewFabric each switch's Host and the path
// its results take toward Result, and passes the time in — so a Fabric
// over a recording Host is a whole deployment a test can step.
//
// Its callers are concurrent: one mutex guards the observer state
// machine, the completed list and the per-snapshot subscriptions.
// Snapshots complete into the Sink with the lock held, so Sink.OnAnomaly
// must not call back into the Fabric.
type Fabric struct {
	dp   dataplane.Config // the snapshot parameters, as every switch has them
	sink *Sink
	sws  []*Switch // by NodeID

	mu   sync.Mutex
	obs  *observer.Observer
	subs map[packet.SeqID]chan *observer.GlobalSnapshot
	done []*observer.GlobalSnapshot
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
	f := &Fabric{dp: dp, sink: sink, subs: make(map[packet.SeqID]chan *observer.GlobalSnapshot)}
	f.obs, err = observer.New(observer.Config{
		MaxID:      dp.MaxID,
		WrapAround: dp.WrapAround,
		RetryAfter: retryAfter,
		Telemetry:  observer.NewTelemetry(reg),
		Journal:    jr.Observer(),
		OnComplete: f.complete,
	})
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
		f.obs.Register(sw.DP.Node(), sw.DP.UnitIDs())
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

// Snapshots returns a copy of the snapshots completed so far.
func (f *Fabric) Snapshots() []*observer.GlobalSnapshot {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]*observer.GlobalSnapshot(nil), f.done...)
}

// Begin allocates the next snapshot ID; the channel yields the
// assembled snapshot once, then closes. The runtime tells every switch
// to initiate the ID.
func (f *Fabric) Begin(now sim.Time) (packet.SeqID, <-chan *observer.GlobalSnapshot, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	id, err := f.obs.Begin(now)
	if err != nil {
		return 0, nil, err
	}
	sub := make(chan *observer.GlobalSnapshot, 1)
	f.subs[id] = sub
	return id, sub, nil
}

// Result ingests one per-unit result: the far end of attach's path.
func (f *Fabric) Result(res control.Result, now sim.Time) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.obs.OnResult(res, now)
}

// Retries runs the observer's retry and exclusion timers at now and
// hands relay every (device, snapshot) that is due a re-initiation and a
// poll — the observer asks once per snapshot, so relay must not lose it.
// relay runs without the lock. Whether the re-initiation floods markers
// is the runtime's liveness policy.
func (f *Fabric) Retries(now sim.Time, relay func(dev topology.NodeID, id packet.SeqID)) {
	f.mu.Lock()
	acts := f.obs.CheckTimeouts(now)
	f.mu.Unlock()
	for _, act := range acts {
		for _, dev := range act.Retry {
			relay(dev, act.SnapshotID)
		}
	}
}

// complete is the observer's OnComplete: it runs inside Result or
// Retries, with mu held. The send cannot block — sub has room for the
// one snapshot it ever carries.
func (f *Fabric) complete(g *observer.GlobalSnapshot) {
	f.sink.Complete(g, 0)
	f.done = append(f.done, g)
	if sub, ok := f.subs[g.ID]; ok {
		delete(f.subs, g.ID)
		sub <- g
		close(sub)
	}
}
