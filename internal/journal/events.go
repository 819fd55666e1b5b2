package journal

import (
	"encoding/json"
	"fmt"

	"speedlight/internal/packet"
)

// Dir is a processing-unit direction, mirroring dataplane.Direction
// without importing it (journal sits below every protocol package).
type Dir int8

const (
	// DirNone marks events that are not tied to one unit direction.
	DirNone Dir = -1
	// DirIngress is the ingress unit of a port.
	DirIngress Dir = 0
	// DirEgress is the egress unit of a port.
	DirEgress Dir = 1
)

// String returns the direction name.
func (d Dir) String() string {
	switch d {
	case DirIngress:
		return "ingress"
	case DirEgress:
		return "egress"
	default:
		return "none"
	}
}

// ParseDir inverts String.
func ParseDir(s string) (Dir, error) {
	switch s {
	case "ingress":
		return DirIngress, nil
	case "egress":
		return DirEgress, nil
	case "none", "":
		return DirNone, nil
	}
	return DirNone, fmt.Errorf("journal: unknown direction %q", s)
}

// MarshalJSON encodes the direction as its name.
func (d Dir) MarshalJSON() ([]byte, error) { return json.Marshal(d.String()) }

// UnmarshalJSON decodes a direction name.
func (d *Dir) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	v, err := ParseDir(s)
	if err != nil {
		return err
	}
	*d = v
	return nil
}

// Kind identifies what protocol transition an event records.
type Kind uint8

const (
	// KindConfig records the deployment parameters the auditor needs
	// (MaxID, wraparound, channel-state mode).
	KindConfig Kind = iota
	// KindRegister announces a processing unit the observer expects
	// results from.
	KindRegister
	// KindInitiate records a snapshot initiation reaching a switch's
	// control plane.
	KindInitiate
	// KindRecord records a unit advancing its snapshot ID and writing
	// its slot.
	KindRecord
	// KindLastSeen records a unit updating a channel's last-seen ID.
	KindLastSeen
	// KindAbsorb records an in-flight (pre-snapshot) packet being
	// absorbed into the current channel-state slot.
	KindAbsorb
	// KindAbsorbMiss records an in-flight packet arriving when the
	// current slot was not open for it — channel state lost.
	KindAbsorbMiss
	// KindRollover records a unit's snapshot ID wrapping around.
	KindRollover
	// KindNotifGen records the dataplane generating a CPU notification.
	KindNotifGen
	// KindNotifDrop records a notification lost to a full CPU queue.
	KindNotifDrop
	// KindNotifService records the control plane dequeuing a CPU
	// notification and beginning to service it.
	KindNotifService
	// KindMarkerSend records the control plane injecting a marker.
	KindMarkerSend
	// KindMarkerRecv records a marker arriving at an ingress unit.
	KindMarkerRecv
	// KindResult records the control plane emitting a unit's snapshot
	// value upstream.
	KindResult
	// KindPoll records a control-plane poll sweep over its units.
	KindPoll
	// KindObsBegin records the observer opening a global snapshot.
	KindObsBegin
	// KindObsResult records the observer accepting a unit result.
	KindObsResult
	// KindObsRetry records the observer re-initiating toward a straggler.
	KindObsRetry
	// KindObsExclude records the observer giving up on a device.
	KindObsExclude
	// KindObsComplete records the observer finalizing a global snapshot.
	KindObsComplete
	// KindChurn records a fabric membership change applied at runtime:
	// a switch or link leaving or rejoining the topology, or a config
	// re-push. Churn events live in the observer's ring (they are
	// fabric-level, not unit-level state transitions); the reconcile
	// classifier overlaps them with snapshot lifetimes to decide which
	// epochs each change touched.
	KindChurn

	numKinds // not a kind: how many there are
)

// Churn operation codes, carried in a KindChurn event's Value field.
const (
	// ChurnSwitchDown marks a switch leaving the fabric (reboot,
	// failure, or administrative removal).
	ChurnSwitchDown uint64 = 1
	// ChurnSwitchUp marks a switch rejoining with freshly provisioned
	// data- and control-plane state.
	ChurnSwitchUp uint64 = 2
	// ChurnLinkDown marks a link drained out of service.
	ChurnLinkDown uint64 = 3
	// ChurnLinkUp marks a drained link re-added.
	ChurnLinkUp uint64 = 4
	// ChurnReconfig marks a dataplane forwarding-config re-push.
	ChurnReconfig uint64 = 5
	// ChurnReroute marks a fabric-wide FIB recomputation around the
	// current down set.
	ChurnReroute uint64 = 6
)

// ChurnOpName returns the human-readable name of a churn op code.
func ChurnOpName(op uint64) string {
	switch op {
	case ChurnSwitchDown:
		return "switch_down"
	case ChurnSwitchUp:
		return "switch_up"
	case ChurnLinkDown:
		return "link_down"
	case ChurnLinkUp:
		return "link_up"
	case ChurnReconfig:
		return "reconfig"
	case ChurnReroute:
		return "reroute"
	default:
		return fmt.Sprintf("churn(%d)", op)
	}
}

var kindNames = map[Kind]string{
	KindConfig:       "config",
	KindRegister:     "register",
	KindInitiate:     "initiate",
	KindRecord:       "record",
	KindLastSeen:     "last_seen",
	KindAbsorb:       "absorb",
	KindAbsorbMiss:   "absorb_miss",
	KindRollover:     "rollover",
	KindNotifGen:     "notif_gen",
	KindNotifDrop:    "notif_drop",
	KindNotifService: "notif_service",
	KindMarkerSend:   "marker_send",
	KindMarkerRecv:   "marker_recv",
	KindResult:       "result",
	KindPoll:         "poll",
	KindObsBegin:     "obs_begin",
	KindObsResult:    "obs_result",
	KindObsRetry:     "obs_retry",
	KindObsExclude:   "obs_exclude",
	KindObsComplete:  "obs_complete",
	KindChurn:        "churn",
}

var kindValues = func() map[string]Kind {
	m := make(map[string]Kind, len(kindNames))
	for k, n := range kindNames {
		m[n] = k
	}
	return m
}()

// String returns the kind's wire name.
func (k Kind) String() string {
	if n, ok := kindNames[k]; ok {
		return n
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// ParseKind inverts String.
func ParseKind(s string) (Kind, error) {
	if k, ok := kindValues[s]; ok {
		return k, nil
	}
	return 0, fmt.Errorf("journal: unknown event kind %q", s)
}

// MarshalJSON encodes the kind as its name.
func (k Kind) MarshalJSON() ([]byte, error) { return json.Marshal(k.String()) }

// UnmarshalJSON decodes a kind name.
func (k *Kind) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	v, err := ParseKind(s)
	if err != nil {
		return err
	}
	*k = v
	return nil
}

// Event is one journaled protocol transition. Field meaning varies by
// Kind (see the constructors); unused fields are zero. Seq is the
// set-wide total order, AtNs the wall (or virtual) time in nanoseconds.
type Event struct {
	Seq  uint64 `json:"seq"`
	AtNs int64  `json:"at_ns"`
	Kind Kind   `json:"kind"`

	// Switch/Port/Dir identify the processing unit; Switch is
	// ObserverNode for observer-side events and Port is -1 when no
	// single unit applies.
	Switch int `json:"switch"`
	Port   int `json:"port"`
	Dir    Dir `json:"dir"`

	// Channel is the neighbor/channel index for per-channel events
	// (-1 otherwise).
	Channel int `json:"channel"`

	// SnapshotID is the unwrapped snapshot ID the event concerns.
	SnapshotID packet.SeqID `json:"snapshot_id"`
	// OldID/NewID bracket a transition (record, last-seen, absorb).
	OldID packet.SeqID `json:"old_id"`
	NewID packet.SeqID `json:"new_id"`
	// WireID is the wrapped on-the-wire ID where one applies.
	WireID packet.WireID `json:"wire_id"`
	// Value carries the event's payload quantity (snapshot value,
	// CoS level, excluded count, MaxID...).
	Value uint64 `json:"value"`
	// Flag carries the event's boolean (consistent, channel-state,
	// re-initiation...).
	Flag bool `json:"flag"`
}

// unitless fills the identity fields for events with no single unit.
func unitless(kind Kind, at int64, sw int) Event {
	return Event{AtNs: at, Kind: kind, Switch: sw, Port: -1, Dir: DirNone, Channel: -1}
}

// unitEvent is an event about a unit and snapshot id, on no single
// channel.
func unitEvent(kind Kind, at int64, sw, port int, dir Dir, id packet.SeqID) Event {
	ev := unitless(kind, at, sw)
	ev.Port, ev.Dir, ev.SnapshotID = port, dir, id
	return ev
}

// obsDevice is an observer event about one device and snapshot id.
func obsDevice(kind Kind, at int64, id packet.SeqID, device int) Event {
	ev := unitless(kind, at, device)
	ev.SnapshotID = id
	return ev
}

// Config describes the deployment so an offline auditor can recover
// MaxID (Value), wraparound mode (Flag reports channel-state; NewID is
// 1 when wraparound is enabled, 0 otherwise).
func Config(maxID uint64, wrap, channelState bool) Event {
	ev := unitless(KindConfig, 0, ObserverNode)
	ev.Value = maxID
	ev.Flag = channelState
	if wrap {
		ev.NewID = 1
	}
	return ev
}

// Register announces a processing unit the observer will expect a
// result from for every snapshot.
func Register(sw, port int, dir Dir) Event {
	return unitEvent(KindRegister, 0, sw, port, dir, 0)
}

// Initiate records snapshot id reaching a switch's control plane.
// re marks a re-initiation (observer retry).
func Initiate(at int64, sw int, id packet.SeqID, re bool) Event {
	ev := unitless(KindInitiate, at, sw)
	ev.SnapshotID = id
	ev.Flag = re
	return ev
}

// Record journals a unit advancing from oldID to newID (unwrapped) and
// writing its snapshot slot; wireID is the wrapped ID carried by the
// packet that caused the advance.
func Record(at int64, sw, port int, dir Dir, channel int, oldID, newID packet.SeqID, wireID packet.WireID) Event {
	ev := transition(KindRecord, at, sw, port, dir, channel, oldID, newID)
	ev.WireID = wireID
	return ev
}

// transition is a unit event moving from oldID to newID on a channel,
// about snapshot newID.
func transition(kind Kind, at int64, sw, port int, dir Dir, channel int, oldID, newID packet.SeqID) Event {
	return Event{
		AtNs: at, Kind: kind, Switch: sw, Port: port, Dir: dir,
		Channel: channel, SnapshotID: newID, OldID: oldID, NewID: newID,
	}
}

// LastSeen journals a unit updating a channel's last-seen snapshot ID
// from oldSeen to newSeen (unwrapped).
func LastSeen(at int64, sw, port int, dir Dir, channel int, oldSeen, newSeen packet.SeqID) Event {
	return transition(KindLastSeen, at, sw, port, dir, channel, oldSeen, newSeen)
}

// Absorb journals an in-flight packet stamped packetID (unwrapped)
// being folded into the channel state of the unit's current snapshot
// curID.
func Absorb(at int64, sw, port int, dir Dir, channel int, packetID, curID packet.SeqID) Event {
	return transition(KindAbsorb, at, sw, port, dir, channel, packetID, curID)
}

// AbsorbMiss journals an in-flight packet stamped packetID arriving
// while the unit's slot for curID was not open — its channel-state
// contribution is lost.
func AbsorbMiss(at int64, sw, port int, dir Dir, channel int, packetID, curID packet.SeqID) Event {
	return transition(KindAbsorbMiss, at, sw, port, dir, channel, packetID, curID)
}

// Rollover journals a unit's wrapped snapshot ID lapping zero while
// advancing from oldID to newID (unwrapped).
func Rollover(at int64, sw, port int, dir Dir, oldID, newID packet.SeqID) Event {
	return transition(KindRollover, at, sw, port, dir, -1, oldID, newID)
}

// NotifGenerated journals the dataplane queueing a CPU notification for
// a unit's advance to id.
func NotifGenerated(at int64, sw, port int, dir Dir, id packet.SeqID) Event {
	return unitEvent(KindNotifGen, at, sw, port, dir, id)
}

// NotifDropped journals a notification for a unit's advance to id lost
// to a full CPU queue — the seed of an Incomplete snapshot.
func NotifDropped(at int64, sw, port int, dir Dir, id packet.SeqID) Event {
	return unitEvent(KindNotifDrop, at, sw, port, dir, id)
}

// NotifService journals the control plane dequeuing a unit's CPU
// notification for its advance to id and beginning to service it. The
// gap from the matching NotifGenerated is the notification's queue
// (plus DMA) wait — the quantity the epoch tracer charges to the
// control-plane queue bucket.
func NotifService(at int64, sw, port int, dir Dir, id packet.SeqID) Event {
	return unitEvent(KindNotifService, at, sw, port, dir, id)
}

// MarkerSent journals the control plane injecting a snapshot marker for
// id into a port; cos is the class-of-service lane it rides.
func MarkerSent(at int64, sw, port int, id packet.SeqID, cos int) Event {
	ev := unitless(KindMarkerSend, at, sw)
	ev.Port = port
	ev.SnapshotID = id
	ev.Value = uint64(cos)
	return ev
}

// MarkerReceived journals a marker for id arriving at an ingress unit
// over a channel.
func MarkerReceived(at int64, sw, port int, channel int, id packet.SeqID) Event {
	ev := unitEvent(KindMarkerRecv, at, sw, port, DirIngress, id)
	ev.Channel = channel
	return ev
}

// Result journals the control plane emitting a unit's value for
// snapshot id upstream, with the control plane's own consistency
// verdict.
func Result(at int64, sw, port int, dir Dir, id packet.SeqID, value uint64, consistent bool) Event {
	ev := unitEvent(KindResult, at, sw, port, dir, id)
	ev.Value, ev.Flag = value, consistent
	return ev
}

// Poll journals a control-plane poll sweep on a switch.
func Poll(at int64, sw int) Event {
	return unitless(KindPoll, at, sw)
}

// ObsBegin journals the observer opening global snapshot id.
func ObsBegin(at int64, id packet.SeqID) Event {
	return obsDevice(KindObsBegin, at, id, ObserverNode)
}

// ObsResult journals the observer accepting a unit's result for
// snapshot id, with the consistency bit it arrived with. Switch/Port/
// Dir name the producing unit even though the event lives in the
// observer's ring — the auditor matches on unit identity.
func ObsResult(at int64, sw, port int, dir Dir, id packet.SeqID, consistent bool) Event {
	ev := unitEvent(KindObsResult, at, sw, port, dir, id)
	ev.Flag = consistent
	return ev
}

// ObsRetry journals the observer re-initiating snapshot id toward a
// straggler device.
func ObsRetry(at int64, id packet.SeqID, device int) Event {
	return obsDevice(KindObsRetry, at, id, device)
}

// ObsExclude journals the observer excluding a device from snapshot id
// after retries ran out.
func ObsExclude(at int64, id packet.SeqID, device int) Event {
	return obsDevice(KindObsExclude, at, id, device)
}

// ObsComplete journals the observer finalizing snapshot id with its
// overall consistency verdict and the number of excluded devices.
func ObsComplete(at int64, id packet.SeqID, consistent bool, excluded int) Event {
	ev := unitless(KindObsComplete, at, ObserverNode)
	ev.SnapshotID = id
	ev.Flag = consistent
	ev.Value = uint64(excluded)
	return ev
}

// Churn journals a runtime fabric change: op is one of the Churn* op
// codes, sw names the switch the change applies to, and port is the
// affected port for link ops (-1 otherwise). Link changes are recorded
// once, against the canonical (lower node ID) endpoint.
func Churn(at int64, sw, port int, op uint64) Event {
	ev := unitless(KindChurn, at, sw)
	ev.Port = port
	ev.Value = op
	return ev
}
