package snapstore

import (
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"

	"speedlight/internal/packet"
)

// The exported *JSON types are the wire schema of the query plane and of
// the JSONL history dump, declared once: the handlers below encode them
// and clients (speedlight doctor) decode with them.

// ListJSON is the GET /snapshots response: retained epochs, newest last.
type ListJSON struct {
	Retained int         `json:"retained"`
	Epochs   []EpochJSON `json:"epochs"`
}

// EpochJSON is one sealed epoch's metadata. Base marks a checkpoint:
// an epoch that stores its full cut.
type EpochJSON struct {
	Epoch       uint64  `json:"epoch"`
	Seq         uint64  `json:"seq"`
	ScheduledNS int64   `json:"scheduled_ns"`
	CompletedNS int64   `json:"completed_ns"`
	SyncNS      int64   `json:"sync_ns"`
	Consistent  bool    `json:"consistent"`
	Excluded    []int64 `json:"excluded,omitempty"`
	Deltas      int     `json:"deltas"`
	Base        bool    `json:"base"`
}

func epochToJSON(e *Epoch) EpochJSON {
	j := EpochJSON{
		Epoch:       uint64(e.ID),
		Seq:         e.Seq,
		ScheduledNS: int64(e.ScheduledAt),
		CompletedNS: int64(e.CompletedAt),
		SyncNS:      int64(e.Sync),
		Consistent:  e.Consistent,
		Deltas:      len(e.deltas),
		Base:        e.IsBase(),
	}
	for _, n := range e.Excluded {
		j.Excluded = append(j.Excluded, int64(n))
	}
	return j
}

// RegJSON is one unit's register in a reconstructed cut.
type RegJSON struct {
	Unit       string `json:"unit"`
	Value      uint64 `json:"value"`
	Consistent bool   `json:"consistent"`
}

// StateJSON is the GET /snapshots?epoch=N response and one line of the
// JSONL history dump: metadata plus the reconstructed cut, present
// units only, in dense unit order.
type StateJSON struct {
	EpochJSON
	Units []RegJSON `json:"units"`
}

func stateToJSON(st *State) StateJSON {
	out := StateJSON{EpochJSON: epochToJSON(st.Epoch), Units: []RegJSON{}}
	for i, reg := range st.Regs {
		if !reg.Present {
			continue
		}
		out.Units = append(out.Units, RegJSON{
			Unit:       st.Units[i].String(),
			Value:      reg.Value,
			Consistent: reg.Consistent,
		})
	}
	return out
}

// WriteJSONL writes the view as JSON Lines: one StateJSON per retained
// epoch, oldest first. The view is immutable, so the dump is a
// consistent point-in-time history even while the store keeps sealing.
func (v *View) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for i := v.lo; i < len(v.epochs); i++ {
		if err := enc.Encode(stateToJSON(v.stateAt(i))); err != nil {
			return err
		}
	}
	return nil
}

// diffJSON is the /snapshots/diff DTO.
type diffJSON struct {
	From    uint64        `json:"from"`
	To      uint64        `json:"to"`
	Changed []regDiffJSON `json:"changed"`
}

type regDiffJSON struct {
	Unit string    `json:"unit"`
	From *regState `json:"from,omitempty"`
	To   *regState `json:"to,omitempty"`
}

type regState struct {
	Value      uint64 `json:"value"`
	Consistent bool   `json:"consistent"`
}

// HTTPHandler serves the snapshot query plane from src's views. Routes
// (relative to the mount point, normally /snapshots):
//
//	GET /snapshots            — retained epochs, newest last (metadata)
//	GET /snapshots?epoch=N    — epoch N's reconstructed consistent cut
//	GET /snapshots/diff?from=A&to=B — registers that changed from A to B
//
// Every request loads one immutable view, so the response is a
// consistent cut even while the store seals new epochs concurrently.
// A nil src yields 503s (no store attached).
func HTTPHandler(src func() *View) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if src == nil {
			http.Error(w, "no snapshot store attached", http.StatusServiceUnavailable)
			return
		}
		v := src()
		if strings.HasSuffix(r.URL.Path, "/diff") {
			serveDiff(w, r, v)
			return
		}
		if es := r.URL.Query().Get("epoch"); es != "" {
			serveState(w, r, v, es)
			return
		}
		serveList(w, v)
	})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // best effort; client gone
}

func serveList(w http.ResponseWriter, v *View) {
	out := ListJSON{Retained: v.Len(), Epochs: []EpochJSON{}}
	for _, e := range v.Epochs() {
		out.Epochs = append(out.Epochs, epochToJSON(e))
	}
	writeJSON(w, out)
}

func serveState(w http.ResponseWriter, r *http.Request, v *View, es string) {
	id, err := strconv.ParseUint(es, 10, 64)
	if err != nil {
		http.Error(w, "bad epoch: "+es, http.StatusBadRequest)
		return
	}
	st, err := v.State(packet.SeqID(id))
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	writeJSON(w, stateToJSON(st))
}

func serveDiff(w http.ResponseWriter, r *http.Request, v *View) {
	q := r.URL.Query()
	from, err1 := strconv.ParseUint(q.Get("from"), 10, 64)
	to, err2 := strconv.ParseUint(q.Get("to"), 10, 64)
	if err1 != nil || err2 != nil {
		http.Error(w, "diff wants ?from=A&to=B (snapshot IDs)", http.StatusBadRequest)
		return
	}
	diffs, err := v.Diff(packet.SeqID(from), packet.SeqID(to))
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	out := diffJSON{From: from, To: to, Changed: []regDiffJSON{}}
	for _, d := range diffs {
		rd := regDiffJSON{Unit: d.Unit.String()}
		if d.From.Present {
			rd.From = &regState{Value: d.From.Value, Consistent: d.From.Consistent}
		}
		if d.To.Present {
			rd.To = &regState{Value: d.To.Value, Consistent: d.To.Consistent}
		}
		out.Changed = append(out.Changed, rd)
	}
	writeJSON(w, out)
}
