package epochtrace

import (
	"encoding/json"
	"net/http"
	"strconv"
	"strings"

	"speedlight/internal/packet"
)

// epochSummary is the one-line listing served when no epoch is named.
type epochSummary struct {
	Epoch          packet.SeqID `json:"epoch"`
	BeginNs        int64        `json:"begin_ns"`
	DurationNs     int64        `json:"duration_ns"`
	SpreadNs       int64        `json:"spread_ns"`
	Consistent     bool         `json:"consistent"`
	Excluded       int          `json:"excluded"`
	CriticalSwitch int          `json:"critical_switch"`
	TopStage       string       `json:"top_stage"`
	TopStageNs     int64        `json:"top_stage_ns"`
}

// HTTPHandler serves epoch traces reconstructed from src. Mounted at
// /trace, /trace/epoch and /trace/critical:
//
//	/trace                  shorthand for /trace/epoch?format=chrome
//	/trace/epoch            epoch summaries (JSON array)
//	/trace/epoch?n=N        epoch N's full span tree
//	/trace/epoch?n=N&format=chrome   Chrome trace-event JSON for epoch N
//	/trace/epoch?format=chrome       Chrome trace-event JSON, all epochs
//	/trace/epoch?format=jsonl        full traces as JSON Lines
//	/trace/critical         critical-path rollup across all epochs
//
// blocking, when non-nil, supplies the sharded engine's per-pair stall
// attribution and is folded into the /trace/critical rollup as its
// "blocking" field (see ShardBlocking); serial engines and offline
// replays pass nil and the field is simply omitted.
//
// A nil src yields 503 on every request, matching the mux's
// not-attached convention.
func HTTPHandler(src func() []*EpochTrace, blocking func() []ShardBlocking) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if src == nil {
			http.Error(w, "epoch tracer not attached", http.StatusServiceUnavailable)
			return
		}
		traces := src()
		if strings.HasSuffix(r.URL.Path, "/critical") {
			roll := NewRollup(traces)
			if blocking != nil {
				roll.Blocking = blocking()
			}
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			if err := enc.Encode(roll); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
			return
		}
		format := r.URL.Query().Get("format")
		if r.URL.Path == "/trace" {
			format = "chrome"
		}
		if ns := r.URL.Query().Get("n"); ns != "" {
			n, err := strconv.ParseUint(ns, 10, 64)
			if err != nil {
				http.Error(w, "bad epoch number: "+err.Error(), http.StatusBadRequest)
				return
			}
			t := ByID(traces, packet.SeqID(n))
			if t == nil {
				http.Error(w, "epoch not traced", http.StatusNotFound)
				return
			}
			traces = []*EpochTrace{t}
			if format == "" {
				w.Header().Set("Content-Type", "application/json")
				enc := json.NewEncoder(w)
				enc.SetIndent("", "  ")
				if err := enc.Encode(t); err != nil {
					http.Error(w, err.Error(), http.StatusInternalServerError)
				}
				return
			}
		}
		switch format {
		case "chrome":
			w.Header().Set("Content-Type", "application/json")
			if err := WriteChromeTrace(w, traces); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
		case "jsonl":
			w.Header().Set("Content-Type", "application/x-ndjson")
			if err := WriteJSONL(w, traces); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
		case "":
			sums := make([]epochSummary, 0, len(traces))
			for _, t := range traces {
				s := epochSummary{
					Epoch: t.ID, BeginNs: t.BeginNs, DurationNs: t.DurationNs(),
					SpreadNs: t.SpreadNs, Consistent: t.Consistent,
					Excluded: t.Excluded, CriticalSwitch: t.CriticalUnit.Switch,
				}
				for _, seg := range t.Critical {
					if d := seg.DurationNs(); d > s.TopStageNs {
						s.TopStageNs, s.TopStage = d, seg.Stage
					}
				}
				sums = append(sums, s)
			}
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			if err := enc.Encode(sums); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
		default:
			http.Error(w, "unknown format "+format, http.StatusBadRequest)
		}
	})
}
