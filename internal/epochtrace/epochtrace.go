// Package epochtrace reconstructs each snapshot epoch's causal history
// from the total-ordered journal: the propagation wavefront (when the
// initiation first touched every switch, when every unit recorded, how
// channel state balanced), the notification pipeline (enqueue, queue
// wait, control-plane service), and the observer's assembly of the
// global cut. On top of the reconstruction it computes the epoch's
// critical path — the slowest causal chain that determined completion
// latency — segmented so the spans partition [ObsBegin, ObsComplete]
// exactly and their durations sum to the measured completion latency.
//
// The tracer is strictly post-hoc: it consumes journal events that the
// protocol already emits and adds no instrumentation to any hot path.
// Because the journal's total order is byte-identical across serial and
// sharded runs, the reconstruction is too.
package epochtrace

import (
	"sort"

	"speedlight/internal/journal"
	"speedlight/internal/packet"
)

// Critical-path stage names, in causal order. Every epoch's critical
// chain carries exactly one segment per stage; a stage the chain did
// not pass through (e.g. a notification recovered by polling) appears
// with zero duration so the partition of [begin, end] stays exact.
const (
	// StageInitiation is ObsBegin → the initiation reaching the
	// critical switch's control plane (scheduling lead + command fabric).
	StageInitiation = "initiation"
	// StageWavefront is initiation → the critical unit recording
	// (marker/packet propagation and local recording).
	StageWavefront = "wavefront"
	// StageNotifEnqueue is record → the CPU notification being exported
	// by the dataplane (coalescing and queue admission).
	StageNotifEnqueue = "notif_enqueue"
	// StageCPQueue is notification export → the control plane dequeuing
	// it (DMA latency plus queue wait behind earlier notifications).
	StageCPQueue = "cp_queue"
	// StageCPService is dequeue → the unit's Result being emitted
	// upstream (control-plane servicing).
	StageCPService = "cp_service"
	// StageObserverWire is Result emission → the observer accepting it
	// (collection network).
	StageObserverWire = "observer_wire"
	// StageFinalize is the last accepted result → ObsComplete
	// (observer-side assembly, retry and exclusion timers).
	StageFinalize = "finalize"
)

// Stages lists the critical-path stages in causal order.
var Stages = []string{
	StageInitiation, StageWavefront, StageNotifEnqueue,
	StageCPQueue, StageCPService, StageObserverWire, StageFinalize,
}

// UnitRef names a processing unit. Switch is journal.ObserverNode for
// observer-side attribution.
type UnitRef struct {
	Switch int         `json:"switch"`
	Port   int         `json:"port"`
	Dir    journal.Dir `json:"dir"`
}

// Segment is one span of an epoch's critical path. Segments are
// contiguous: each FromNs equals the previous segment's ToNs, the first
// starts at the epoch's BeginNs and the last ends at EndNs.
type Segment struct {
	Stage string `json:"stage"`
	// Switch is the device the time is attributed to
	// (journal.ObserverNode for observer-side stages).
	Switch int `json:"switch"`
	// Port/Dir name the unit for unit-scoped stages (-1/none otherwise).
	Port int         `json:"port"`
	Dir  journal.Dir `json:"dir"`
	// Channel is the inbound channel that delivered the recording
	// trigger for the wavefront stage (-1 otherwise).
	Channel int   `json:"channel"`
	FromNs  int64 `json:"from_ns"`
	ToNs    int64 `json:"to_ns"`
}

// DurationNs is the segment's span length.
func (s Segment) DurationNs() int64 { return s.ToNs - s.FromNs }

// SwitchTrace is one switch's slice of an epoch's wavefront.
type SwitchTrace struct {
	Switch int `json:"switch"`
	// FirstTouchNs is the earliest moment the epoch reached the switch
	// (initiation, marker arrival, or first record); -1 if it never did.
	FirstTouchNs int64 `json:"first_touch_ns"`
	// InitiateNs is when the initiation command reached the control
	// plane (-1 if the wavefront arrived only by neighbor-cast).
	InitiateNs    int64 `json:"initiate_ns"`
	FirstRecordNs int64 `json:"first_record_ns"`
	LastRecordNs  int64 `json:"last_record_ns"`
	Records       int   `json:"records"`
	Markers       int   `json:"markers"`
	Absorbs       int   `json:"absorbs"`
	AbsorbMisses  int   `json:"absorb_misses"`
	NotifsGen     int   `json:"notifs_generated"`
	NotifsSvc     int   `json:"notifs_serviced"`
	NotifsDropped int   `json:"notifs_dropped"`
	// CPQueueNs sums, over this switch's units, the wait between a
	// notification's export and its control-plane dequeue.
	CPQueueNs int64 `json:"cp_queue_ns"`
	// CPServiceNs sums the dequeue → Result emission time.
	CPServiceNs   int64 `json:"cp_service_ns"`
	FirstResultNs int64 `json:"first_result_ns"`
	LastResultNs  int64 `json:"last_result_ns"`
	Results       int   `json:"results"`
	// LastObsNs is the observer's last accepted result from this switch.
	LastObsNs int64 `json:"last_obs_ns"`
	Retries   int   `json:"retries"`
	Excluded  bool  `json:"excluded"`
}

// EpochTrace is one epoch's reconstructed causal history.
type EpochTrace struct {
	ID         packet.SeqID `json:"epoch"`
	BeginNs    int64        `json:"begin_ns"`
	EndNs      int64        `json:"end_ns"`
	Consistent bool         `json:"consistent"`
	Excluded   int          `json:"excluded"`
	Retries    int          `json:"retries"`
	// SpreadNs is the recording wavefront's spread — last record minus
	// first record across all units (the paper's sync-spread figure).
	SpreadNs int64 `json:"spread_ns"`
	// Switches is the per-switch wavefront, ordered by first touch.
	Switches []SwitchTrace `json:"switches"`
	// CriticalUnit is the unit whose result completed the cut last
	// ({-1,-1,none} when the epoch closed with no accepted results).
	CriticalUnit UnitRef `json:"critical_unit"`
	// Critical is the slowest causal chain, partitioning [begin, end].
	Critical []Segment `json:"critical"`
}

// DurationNs is the epoch's completion latency.
func (t *EpochTrace) DurationNs() int64 { return t.EndNs - t.BeginNs }

// unitTimes collects the causal chain timestamps of one unit within one
// epoch; -1 marks an event the journal did not record.
type unitTimes struct {
	record  int64
	channel int
	gen     int64
	svc     int64
	result  int64
	obs     int64
}

// builder accumulates one epoch's events between ObsBegin and
// ObsComplete.
type builder struct {
	id       packet.SeqID
	begin    int64
	switches map[int]*SwitchTrace
	units    map[UnitRef]*unitTimes
	retries  int
}

func newBuilder(id packet.SeqID, begin int64) *builder {
	return &builder{
		id:       id,
		begin:    begin,
		switches: make(map[int]*SwitchTrace),
		units:    make(map[UnitRef]*unitTimes),
	}
}

func (b *builder) sw(node int) *SwitchTrace {
	st, ok := b.switches[node]
	if !ok {
		st = &SwitchTrace{
			Switch: node, FirstTouchNs: -1, InitiateNs: -1,
			FirstRecordNs: -1, LastRecordNs: -1,
			FirstResultNs: -1, LastResultNs: -1, LastObsNs: -1,
		}
		b.switches[node] = st
	}
	return st
}

func (b *builder) unit(sw, port int, dir journal.Dir) *unitTimes {
	ref := UnitRef{Switch: sw, Port: port, Dir: dir}
	ut, ok := b.units[ref]
	if !ok {
		ut = &unitTimes{record: -1, channel: -1, gen: -1, svc: -1, result: -1, obs: -1}
		b.units[ref] = ut
	}
	return ut
}

func touch(st *SwitchTrace, at int64) {
	if st.FirstTouchNs < 0 || at < st.FirstTouchNs {
		st.FirstTouchNs = at
	}
}

func (b *builder) add(ev journal.Event) {
	switch ev.Kind {
	case journal.KindInitiate:
		st := b.sw(ev.Switch)
		if st.InitiateNs < 0 {
			st.InitiateNs = ev.AtNs
		}
		touch(st, ev.AtNs)
	case journal.KindRecord:
		st := b.sw(ev.Switch)
		st.Records++
		if st.FirstRecordNs < 0 {
			st.FirstRecordNs = ev.AtNs
		}
		st.LastRecordNs = ev.AtNs
		touch(st, ev.AtNs)
		ut := b.unit(ev.Switch, ev.Port, ev.Dir)
		if ut.record < 0 {
			ut.record = ev.AtNs
			ut.channel = ev.Channel
		}
	case journal.KindMarkerRecv:
		st := b.sw(ev.Switch)
		st.Markers++
		touch(st, ev.AtNs)
	case journal.KindAbsorb:
		b.sw(ev.Switch).Absorbs++
	case journal.KindAbsorbMiss:
		b.sw(ev.Switch).AbsorbMisses++
	case journal.KindNotifGen:
		b.sw(ev.Switch).NotifsGen++
		ut := b.unit(ev.Switch, ev.Port, ev.Dir)
		if ut.gen < 0 {
			ut.gen = ev.AtNs
		}
	case journal.KindNotifDrop:
		b.sw(ev.Switch).NotifsDropped++
	case journal.KindNotifService:
		b.sw(ev.Switch).NotifsSvc++
		ut := b.unit(ev.Switch, ev.Port, ev.Dir)
		if ut.svc < 0 {
			ut.svc = ev.AtNs
		}
	case journal.KindResult:
		st := b.sw(ev.Switch)
		st.Results++
		if st.FirstResultNs < 0 {
			st.FirstResultNs = ev.AtNs
		}
		st.LastResultNs = ev.AtNs
		ut := b.unit(ev.Switch, ev.Port, ev.Dir)
		if ut.result < 0 {
			ut.result = ev.AtNs
		}
	case journal.KindObsResult:
		st := b.sw(ev.Switch)
		if ev.AtNs > st.LastObsNs {
			st.LastObsNs = ev.AtNs
		}
		ut := b.unit(ev.Switch, ev.Port, ev.Dir)
		if ut.obs < 0 {
			ut.obs = ev.AtNs
		}
	case journal.KindObsRetry:
		b.retries++
		b.sw(ev.Switch).Retries++
	case journal.KindObsExclude:
		b.sw(ev.Switch).Excluded = true
	}
}

// finish seals the builder into an EpochTrace at the ObsComplete event.
func (b *builder) finish(ev journal.Event) *EpochTrace {
	t := &EpochTrace{
		ID:         b.id,
		BeginNs:    b.begin,
		EndNs:      ev.AtNs,
		Consistent: ev.Flag,
		Excluded:   int(ev.Value),
		Retries:    b.retries,
	}

	// Fold per-unit queue/service waits into their switch buckets.
	for ref, ut := range b.units {
		st := b.sw(ref.Switch)
		if ut.gen >= 0 && ut.svc >= ut.gen {
			st.CPQueueNs += ut.svc - ut.gen
		}
		if ut.svc >= 0 && ut.result >= ut.svc {
			st.CPServiceNs += ut.result - ut.svc
		}
	}

	// Wavefront spread across all records.
	firstRec, lastRec := int64(-1), int64(-1)
	for _, st := range b.switches {
		if st.FirstRecordNs >= 0 && (firstRec < 0 || st.FirstRecordNs < firstRec) {
			firstRec = st.FirstRecordNs
		}
		if st.LastRecordNs > lastRec {
			lastRec = st.LastRecordNs
		}
	}
	if firstRec >= 0 {
		t.SpreadNs = lastRec - firstRec
	}

	for _, st := range b.switches {
		t.Switches = append(t.Switches, *st)
	}
	sort.Slice(t.Switches, func(i, j int) bool {
		a, c := t.Switches[i], t.Switches[j]
		af, cf := a.FirstTouchNs, c.FirstTouchNs
		if af < 0 {
			af = int64(^uint64(0) >> 1)
		}
		if cf < 0 {
			cf = int64(^uint64(0) >> 1)
		}
		if af != cf {
			return af < cf
		}
		return a.Switch < c.Switch
	})

	t.CriticalUnit, t.Critical = b.critical(t)
	return t
}

// Build reconstructs the trace of every epoch that both opened and
// completed within the journal, ordered by epoch ID. The journal's
// deterministic total order makes the output deterministic too.
func Build(events []journal.Event) []*EpochTrace {
	open := make(map[packet.SeqID]*builder)
	var done []*EpochTrace
	for _, ev := range events {
		switch ev.Kind {
		case journal.KindObsBegin:
			open[ev.SnapshotID] = newBuilder(ev.SnapshotID, ev.AtNs)
		case journal.KindObsComplete:
			if b, ok := open[ev.SnapshotID]; ok {
				done = append(done, b.finish(ev))
				delete(open, ev.SnapshotID)
			}
		default:
			if b, ok := open[ev.SnapshotID]; ok {
				b.add(ev)
			}
		}
	}
	sort.Slice(done, func(i, j int) bool { return done[i].ID < done[j].ID })
	return done
}

// ByID returns the trace for epoch n, or nil.
func ByID(traces []*EpochTrace, n packet.SeqID) *EpochTrace {
	for _, t := range traces {
		if t.ID == n {
			return t
		}
	}
	return nil
}
