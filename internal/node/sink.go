package node

import (
	"fmt"
	"sync/atomic"

	"speedlight/internal/invariant"
	"speedlight/internal/journal"
	"speedlight/internal/observer"
	"speedlight/internal/packet"
	"speedlight/internal/sim"
	"speedlight/internal/snapstore"
)

// Sink is where an assembled global snapshot goes: the anomaly hook,
// the history store and the invariant engine. Every field is optional.
type Sink struct {
	// Journal supplies the flight-recorder tail handed to OnAnomaly.
	Journal   *journal.Set
	OnAnomaly func(reason string, snapshotID packet.SeqID, dump []journal.Event)
	// Snapstore ingests every snapshot as a sealed epoch; Invariants
	// (which needs Snapstore) then evaluates it.
	Snapstore  *snapstore.Store
	Invariants *invariant.Engine

	completed atomic.Uint64
}

// CompletedEpochs returns how many snapshots Complete has taken. Safe
// from any goroutine; against Snapstore's sealed count it is the
// store's ingestion lag.
func (s *Sink) CompletedEpochs() uint64 { return s.completed.Load() }

// Complete takes one finalized snapshot; calls must not overlap. An
// inconsistent snapshot, one with excluded devices, and every invariant
// violation fire OnAnomaly. sync is the snapshot's synchronization
// spread where the runtime measures one.
func (s *Sink) Complete(g *observer.GlobalSnapshot, sync sim.Duration) {
	completed := s.completed.Add(1)
	if !g.Consistent {
		s.anomaly(fmt.Sprintf("snapshot %d finalized inconsistent", g.ID), g.ID)
	} else if len(g.Excluded) > 0 {
		s.anomaly(fmt.Sprintf("snapshot %d finalized with %d device(s) excluded", g.ID, len(g.Excluded)), g.ID)
	}
	if s.Snapstore == nil {
		return
	}
	ep := s.Snapstore.Ingest(g, sync)
	s.Snapstore.RecordLag(completed)
	if s.Invariants != nil {
		for _, viol := range s.Invariants.Eval(s.Snapstore.View(), ep) {
			s.anomaly(viol.String(), g.ID)
		}
	}
}

// anomaly dumps the flight recorder to the hook. Other goroutines (or
// simulation shards) may be appending while the tail is read: slots are
// read atomically, and an entry still being published may miss the
// dump, which a flight recorder tolerates.
func (s *Sink) anomaly(reason string, id packet.SeqID) {
	s.Journal.Anomaly(s.OnAnomaly, reason, id)
}

// SnapstoreLagMax is how many epochs Snapstore's ingestion may trail the
// observer before the readiness check Fabric.Endpoints registers fails.
const SnapstoreLagMax = 8
