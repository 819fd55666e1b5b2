package invariant

import (
	"encoding/json"
	"net/http"
)

// The exported *JSON types are the wire schema of GET /invariants,
// declared once: the handler encodes them and clients (speedlight
// doctor) decode with them.

// ReportJSON is the GET /invariants response.
type ReportJSON struct {
	Invariants []StatusJSON    `json:"invariants"`
	History    []ViolationJSON `json:"history"`
}

// StatusJSON is one invariant's standing on the wire.
type StatusJSON struct {
	Name       string `json:"name"`
	Evals      uint64 `json:"evals"`
	Violations uint64 `json:"violations"`
	LastEpoch  uint64 `json:"last_epoch"`
	OK         bool   `json:"ok"`
	Detail     string `json:"detail,omitempty"`
}

// ViolationJSON is one logged violation on the wire.
type ViolationJSON struct {
	Invariant string `json:"invariant"`
	Epoch     uint64 `json:"epoch"`
	Seq       uint64 `json:"seq"`
	Detail    string `json:"detail"`
}

// HTTPHandler serves GET /invariants: every registered invariant's
// status plus the retained violation history, as JSON. A nil engine
// yields 503s (no engine attached).
func HTTPHandler(e *Engine) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if e == nil {
			http.Error(w, "no invariant engine attached", http.StatusServiceUnavailable)
			return
		}
		out := ReportJSON{Invariants: []StatusJSON{}, History: []ViolationJSON{}}
		for _, st := range e.Status() {
			out.Invariants = append(out.Invariants, StatusJSON{
				Name:       st.Name,
				Evals:      st.Evals,
				Violations: st.Violations,
				LastEpoch:  uint64(st.LastEpoch),
				OK:         st.OK,
				Detail:     st.Detail,
			})
		}
		for _, v := range e.Violations() {
			out.History = append(out.History, ViolationJSON{
				Invariant: v.Invariant,
				Epoch:     uint64(v.Epoch),
				Seq:       v.Seq,
				Detail:    v.Detail,
			})
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(out) //nolint:errcheck // best effort; client gone
	})
}
