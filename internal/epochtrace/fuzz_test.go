package epochtrace

import (
	"bytes"
	"testing"
)

// FuzzEpochTraceDecode feeds corrupted epoch-trace dumps to ReadJSONL.
// Contract: arbitrary input yields traces or an error, never a panic,
// and whatever decodes survives a write/read round trip: written back,
// read again and written once more, it gives the same bytes.
func FuzzEpochTraceDecode(f *testing.F) {
	var dump bytes.Buffer
	if err := WriteJSONL(&dump, Build(twoSwitchJournal())); err != nil {
		f.Fatal(err)
	}
	f.Add(dump.Bytes())
	f.Add(dump.Bytes()[:dump.Len()/2])
	f.Add([]byte(""))
	f.Add([]byte("{}\n"))
	f.Add([]byte("null\n"))
	f.Add([]byte(`{"epoch":1,"switches":[{"switch":0}],"critical":[{"stage":"finalize","dir":"egress"}]}`))
	f.Add([]byte(`{"critical_unit":{"dir":"sideways"}}`))
	f.Add([]byte(`{"epoch":18446744073709551615,"begin_ns":-9223372036854775808}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		traces, err := ReadJSONL(bytes.NewReader(data))
		if err != nil {
			return
		}
		var once, twice bytes.Buffer
		if err := WriteJSONL(&once, traces); err != nil {
			t.Fatalf("decoded traces do not re-encode: %v", err)
		}
		back, err := ReadJSONL(bytes.NewReader(once.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded traces do not decode: %v\n%s", err, once.Bytes())
		}
		if len(back) != len(traces) {
			t.Fatalf("round trip read %d traces, wrote %d", len(back), len(traces))
		}
		if err := WriteJSONL(&twice, back); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatalf("round trip changed the traces:\nfirst:  %s\nsecond: %s", once.Bytes(), twice.Bytes())
		}
	})
}
