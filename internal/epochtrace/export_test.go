package epochtrace

import (
	"encoding/json"
	"io"
)

// ReadJSONL parses a JSONL epoch-trace dump.
func ReadJSONL(r io.Reader) ([]*EpochTrace, error) {
	var traces []*EpochTrace
	dec := json.NewDecoder(r)
	for {
		var t EpochTrace
		if err := dec.Decode(&t); err != nil {
			if err == io.EOF {
				return traces, nil
			}
			return nil, err
		}
		traces = append(traces, &t)
	}
}

// CriticalSumNs sums the critical segments; by construction it equals
// DurationNs.
func (t *EpochTrace) CriticalSumNs() int64 {
	var sum int64
	for _, s := range t.Critical {
		sum += s.DurationNs()
	}
	return sum
}
