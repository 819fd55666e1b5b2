package node

import (
	"speedlight/internal/journal"
	"speedlight/internal/telemetry"
)

// protocolCounters are the telemetry families of the protocol's
// transitions: the switch CPU's initiate, service, poll and result
// (Figs. 6–7), the data plane's notification export and drop, and the
// observer's begin, retry, exclude and complete (§6). Each reads, at
// Gather, the journal rings' count of one event kind with the Flag
// values it names, so a transition is recorded once, by its
// journal.Append.
var protocolCounters = []protocolCounter{
	{"speedlight_cp_notifs_serviced_total", "data-plane notifications serviced", journal.KindNotifService, either},
	{"speedlight_cp_initiations_total", "first-time snapshot initiations", journal.KindInitiate, 0},
	{"speedlight_cp_reinitiations_total", "snapshot re-initiations (recovery)", journal.KindInitiate, 1},
	{"speedlight_cp_polls_total", "register polls (drop recovery)", journal.KindPoll, either},
	{"speedlight_cp_results_total", "per-unit snapshot results finalized", journal.KindResult, either},
	{"speedlight_cp_results_inconsistent_total", "per-unit results finalized inconsistent", journal.KindResult, 0},
	{"speedlight_dp_notifs_generated_total", "notifications exported to the switch CPU", journal.KindNotifGen, either},
	{"speedlight_dp_notifs_dropped_total", "notifications dropped at the full CPU queue", journal.KindNotifDrop, either},
	{"speedlight_dp_rollovers_total", "snapshot ID wire wraparounds observed", journal.KindRollover, either},
	{"speedlight_obs_snapshots_begun_total", "network-wide snapshots started", journal.KindObsBegin, either},
	{"speedlight_obs_snapshots_completed_total", "network-wide snapshots assembled", journal.KindObsComplete, either},
	{"speedlight_obs_snapshots_inconsistent_total", "assembled snapshots with an inconsistent unit", journal.KindObsComplete, 0},
	{"speedlight_obs_retries_total", "devices asked to re-initiate a stalled snapshot", journal.KindObsRetry, either},
	{"speedlight_obs_exclusions_total", "devices excluded from a snapshot after timeout", journal.KindObsExclude, either},
}

type protocolCounter struct {
	name, help string
	kind       journal.Kind
	flag       int8 // the Flag counted: 0 false, 1 true, either both
}

const either = -1

// read sums rings' counts of c's kind and flag.
func (c protocolCounter) read(rings *journal.Set) int64 {
	n := rings.Count(c.kind, c.flag == 1)
	if c.flag == either {
		n += rings.Count(c.kind, true)
	}
	return int64(n)
}

// registerCounts puts the protocol counters, and the observer's pending
// gauge (begun less completed: only completion ends a snapshot), on reg
// as reads of rings. A (reg, rings) pair registers once however many
// deployments share it.
func registerCounts(reg *telemetry.Registry, rings *journal.Set) {
	for _, c := range protocolCounters {
		reg.Func(c.name, c.help, telemetry.KindCounter, rings, func() int64 { return c.read(rings) })
	}
	begun := protocolCounter{kind: journal.KindObsBegin, flag: either}
	completed := protocolCounter{kind: journal.KindObsComplete, flag: either}
	reg.Func("speedlight_obs_snapshots_pending", "snapshots currently being assembled", telemetry.KindGauge, rings, func() int64 {
		done := completed.read(rings) // first: a begin is never counted after its completion
		return begun.read(rings) - done
	})
}
