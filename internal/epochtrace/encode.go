package epochtrace

import (
	"bufio"
	"encoding/json"
	"io"
)

// WriteJSONL writes one epoch trace per line — the tracer's native
// interchange format. Structs marshal field-by-field, so the bytes are
// deterministic for a deterministic journal.
func WriteJSONL(w io.Writer, traces []*EpochTrace) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, t := range traces {
		if err := enc.Encode(t); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// chromeEvent is one entry of the Chrome trace-event format ("catapult"
// JSON array flavor), loadable in chrome://tracing and Perfetto.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int64          `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// WriteChromeTrace renders traces in the Chrome trace-event format: one
// thread per epoch, one complete ("X") event per critical-path segment,
// plus a whole-epoch span and per-switch wavefront spans, with
// timestamps in microseconds as the format requires.
func WriteChromeTrace(w io.Writer, traces []*EpochTrace) error {
	const pid = 1
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	events := []chromeEvent{{
		Name: "process_name", Ph: "M", PID: pid,
		Args: map[string]any{"name": "speedlight epoch trace"},
	}}
	for _, t := range traces {
		tid := int64(t.ID)
		events = append(events, chromeEvent{
			Name: "thread_name", Ph: "M", PID: pid, TID: tid,
			Args: map[string]any{"name": "epoch " + itoa(int64(t.ID))},
		})
		events = append(events, chromeEvent{
			Name: "epoch", Cat: "epoch", Ph: "X", PID: pid, TID: tid,
			TS: us(t.BeginNs), Dur: us(t.EndNs - t.BeginNs),
			Args: map[string]any{
				"consistent": t.Consistent,
				"excluded":   t.Excluded,
				"spread_ns":  t.SpreadNs,
			},
		})
		for _, seg := range t.Critical {
			if seg.DurationNs() == 0 {
				continue
			}
			events = append(events, chromeEvent{
				Name: seg.Stage, Cat: "critical", Ph: "X", PID: pid, TID: tid,
				TS: us(seg.FromNs), Dur: us(seg.DurationNs()),
				Args: map[string]any{
					"switch":  seg.Switch,
					"port":    seg.Port,
					"dir":     seg.Dir.String(),
					"channel": seg.Channel,
				},
			})
		}
		for _, st := range t.Switches {
			if st.FirstTouchNs < 0 || st.LastObsNs < st.FirstTouchNs {
				continue
			}
			events = append(events, chromeEvent{
				Name: "switch " + itoa(int64(st.Switch)), Cat: "wavefront",
				Ph: "X", PID: pid, TID: tid,
				TS: us(st.FirstTouchNs), Dur: us(st.LastObsNs - st.FirstTouchNs),
				Args: map[string]any{
					"records":     st.Records,
					"cp_queue_ns": st.CPQueueNs,
					"excluded":    st.Excluded,
				},
			})
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(events)
}

// itoa formats without fmt so the exporter stays dependency-light.
func itoa(v int64) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}
