package journal

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"net/http/httptest"
	"os"
	"reflect"
	"speedlight/internal/packet"
	"strings"
	"sync"
	"testing"
)

func TestNilReceiversAreNoOps(t *testing.T) {
	var j *Journal
	j.Append(Poll(1, 0)) // must not panic
	if j.Events() != nil || j.Appended() != 0 || j.Overwritten() != 0 || j.Cap() != 0 {
		t.Fatal("nil Journal should read empty")
	}
	var s *Set
	if s.For(3) != nil {
		t.Fatal("nil Set.For should return nil ring")
	}
	s.Observer().Append(Poll(1, 0))
	if s.Events() != nil || s.Tail(5) != nil || s.Appended() != 0 || s.Overwritten() != 0 {
		t.Fatal("nil Set should read empty")
	}
}

func TestRingWraparound(t *testing.T) {
	j := New(4)
	if j.Cap() != 4 {
		t.Fatalf("Cap = %d, want 4", j.Cap())
	}
	for i := 0; i < 10; i++ {
		j.Append(Initiate(int64(i), 0, packet.SeqID(i), false))
	}
	if got := j.Appended(); got != 10 {
		t.Fatalf("Appended = %d, want 10", got)
	}
	if got := j.Overwritten(); got != 6 {
		t.Fatalf("Overwritten = %d, want 6", got)
	}
	evs := j.Events()
	if len(evs) != 4 {
		t.Fatalf("len(Events) = %d, want 4", len(evs))
	}
	for i, ev := range evs {
		want := uint64(7 + i) // seqs 7..10 survive
		if ev.Seq != want {
			t.Fatalf("event %d has seq %d, want %d", i, ev.Seq, want)
		}
	}
}

// TestCountsOutliveTheRing: a ring counts every event it is handed by
// (kind, flag), overwritten or not; a counts-only set keeps none.
func TestCountsOutliveTheRing(t *testing.T) {
	sets := []*Set{NewSet(4), NewCounts()}
	for _, s := range sets {
		for i := 0; i < 10; i++ {
			s.For(i % 2).Append(Initiate(int64(i), i%2, packet.SeqID(i), i%5 == 0))
		}
		s.Observer().Append(ObsBegin(0, 1))
		if got := [3]uint64{s.Count(KindInitiate, false), s.Count(KindInitiate, true), s.Count(KindObsBegin, false)}; got != [3]uint64{8, 2, 1} {
			t.Errorf("Count = %v, want [8 2 1]", got)
		}
	}
	if counts := sets[1]; len(counts.Events()) != 0 || counts.For(0).Cap() != 0 || counts.Overwritten() != 0 {
		t.Error("a counts-only ring keeps events")
	}
}

func TestCapacityRoundsUpToPowerOfTwo(t *testing.T) {
	if got := New(5).Cap(); got != 8 {
		t.Fatalf("New(5).Cap() = %d, want 8", got)
	}
	if got := New(0).Cap(); got != DefaultCapacity {
		t.Fatalf("New(0).Cap() = %d, want %d", got, DefaultCapacity)
	}
}

func TestSetMergeTotalOrder(t *testing.T) {
	s := NewSet(16)
	s.For(0).Append(Poll(1, 0))
	s.For(1).Append(Poll(2, 1))
	s.Observer().Append(ObsBegin(3, 7))
	s.For(0).Append(Poll(4, 0))
	evs := s.Events()
	if len(evs) != 4 {
		t.Fatalf("len(Events) = %d, want 4", len(evs))
	}
	for i, ev := range evs {
		if ev.Seq != uint64(i+1) {
			t.Fatalf("merged event %d has seq %d, want %d", i, ev.Seq, i+1)
		}
	}
	if evs[2].Kind != KindObsBegin || evs[2].Switch != ObserverNode {
		t.Fatalf("merged order wrong: %+v", evs[2])
	}
	if got := s.Tail(2); len(got) != 2 || got[0].Seq != 3 {
		t.Fatalf("Tail(2) = %+v", got)
	}
}

// TestSetMergeInterleavingIndependent: the merged stream is a pure
// function of each ring's contents — the wall-clock order in which
// different rings were appended must not show through. This is the
// property the parallel engine's byte-identical-journal guarantee
// rests on.
func TestSetMergeInterleavingIndependent(t *testing.T) {
	build := func(order []int) []Event {
		s := NewSet(16)
		appends := map[int][]Event{
			0:            {Poll(10, 0), Poll(30, 0)},
			1:            {Poll(10, 1), Poll(20, 1)},
			ObserverNode: {ObsBegin(10, 7), ObsBegin(25, 8)},
		}
		idx := map[int]int{}
		for _, node := range order {
			s.For(node).Append(appends[node][idx[node]])
			idx[node]++
		}
		return s.Events()
	}
	a := build([]int{0, 0, 1, 1, ObserverNode, ObserverNode})
	b := build([]int{ObserverNode, 1, 0, 1, ObserverNode, 0})
	if len(a) != 6 || len(b) != 6 {
		t.Fatalf("merged lengths %d, %d, want 6", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("merge depends on append interleaving at %d:\n%+v\n%+v", i, a[i], b[i])
		}
	}
	// Ties at AtNs=10 resolve observer ring first, then nodes ascending.
	if a[0].Kind != KindObsBegin {
		t.Errorf("tie at t=10: observer ring should rank first, got %+v", a[0])
	}
	if a[1].Switch != 0 || a[2].Switch != 1 {
		t.Errorf("tie at t=10: switch rings out of node order: %+v, %+v", a[1], a[2])
	}
	for i, ev := range a {
		if ev.Seq != uint64(i+1) {
			t.Errorf("re-stamped seq %d at %d", ev.Seq, i)
		}
	}
}

// TestConcurrentAppendAndDump exercises dump-during-append under the
// race detector: readers must only ever see whole events.
func TestConcurrentAppendAndDump(t *testing.T) {
	s := NewSet(64)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(node int) {
			defer wg.Done()
			j := s.For(node)
			for i := 0; i < 500; i++ {
				j.Append(Record(int64(i), node, i%8, DirIngress, 0, packet.SeqID(i), packet.SeqID(i+1), packet.WireIDFromRaw(uint32(i))))
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			for _, ev := range s.Events() {
				if ev.Kind != KindRecord {
					t.Errorf("torn event: %+v", ev)
					return
				}
				if ev.NewID != ev.OldID+1 {
					t.Errorf("torn event fields: %+v", ev)
					return
				}
			}
		}
	}()
	wg.Wait()
	if got := s.Appended(); got != 2000 {
		t.Fatalf("Appended = %d, want 2000", got)
	}
}

// allEvents returns one instance of every constructor, for round-trip
// and coverage testing.
func allEvents() []Event {
	return []Event{
		Config(256, true, true),
		Register(0, 1, DirEgress),
		Initiate(10, 0, 5, true),
		Record(20, 1, 2, DirIngress, 3, 4, 5, 5),
		LastSeen(30, 1, 2, DirIngress, 3, 4, 5),
		Absorb(40, 1, 2, DirIngress, 3, 4, 5),
		AbsorbMiss(50, 1, 2, DirIngress, 3, 4, 5),
		Rollover(60, 1, 2, DirEgress, 255, 256),
		NotifGenerated(70, 1, 2, DirIngress, 5),
		NotifDropped(80, 1, 2, DirEgress, 5),
		NotifService(85, 1, 2, DirIngress, 5),
		MarkerSent(90, 1, 2, 5, 7),
		MarkerReceived(100, 1, 2, 3, 5),
		Result(110, 1, 2, DirIngress, 5, 42, true),
		Poll(120, 1),
		ObsBegin(130, 5),
		ObsResult(140, 1, 2, DirEgress, 5, false),
		ObsRetry(150, 5, 1),
		ObsExclude(160, 5, 1),
		ObsComplete(170, 5, false, 2),
		Churn(180, 1, 2, ChurnLinkDown),
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	in := allEvents()
	for i := range in {
		in[i].Seq = uint64(i + 1)
	}
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("JSONL round trip mismatch:\nin:  %+v\nout: %+v", in, out)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	in := allEvents()
	for i := range in {
		in[i].Seq = uint64(i + 1)
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("CSV round trip mismatch:\nin:  %+v\nout: %+v", in, out)
	}
}

func TestReadCSVRejectsBadHeader(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader("a,b,c\n")); err == nil {
		t.Fatal("want error for short header")
	}
}

func TestKindAndDirParse(t *testing.T) {
	for k, name := range kindNames {
		got, err := ParseKind(name)
		if err != nil || got != k {
			t.Fatalf("ParseKind(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := ParseKind("bogus"); err == nil {
		t.Fatal("want error for unknown kind")
	}
	for _, d := range []Dir{DirNone, DirIngress, DirEgress} {
		got, err := ParseDir(d.String())
		if err != nil || got != d {
			t.Fatalf("ParseDir(%q) = %v, %v", d.String(), got, err)
		}
	}
	if _, err := ParseDir("sideways"); err == nil {
		t.Fatal("want error for unknown dir")
	}
}

func TestEventString(t *testing.T) {
	s := Record(20, 1, 2, DirIngress, 3, 4, 5, 5).String()
	for _, want := range []string{"record", "sw1", "port2", "ingress", "id 4->5"} {
		if !strings.Contains(s, want) {
			t.Fatalf("Record.String() = %q, missing %q", s, want)
		}
	}
	if s := ObsBegin(0, 7).String(); !strings.Contains(s, "observer") {
		t.Fatalf("ObsBegin.String() = %q, missing observer", s)
	}
}

func TestHTTPHandler(t *testing.T) {
	evs := []Event{Poll(1, 0), ObsBegin(2, 3)}
	h := HTTPHandler(func() []Event { return evs })

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/journal", nil))
	got, err := ReadJSONL(rec.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(evs, got) {
		t.Fatalf("JSONL endpoint mismatch: %+v", got)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/journal?format=csv", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "csv") {
		t.Fatalf("Content-Type = %q", ct)
	}
	got, err = ReadCSV(rec.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(evs, got) {
		t.Fatalf("CSV endpoint mismatch: %+v", got)
	}
}

// TestEventConstructorsCovered parses events.go and asserts every
// exported constructor returning Event appears in allEvents above, so
// adding an event kind without extending the round-trip tests fails CI.
func TestEventConstructorsCovered(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "events.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var constructors []string
	for _, decl := range f.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Recv != nil || !fn.Name.IsExported() {
			continue
		}
		res := fn.Type.Results
		if res == nil || len(res.List) != 1 {
			continue
		}
		if id, ok := res.List[0].Type.(*ast.Ident); ok && id.Name == "Event" {
			constructors = append(constructors, fn.Name.Name)
		}
	}
	if len(constructors) < 15 {
		t.Fatalf("found only %d constructors; parsing broke?", len(constructors))
	}

	src, err := os.ReadFile("journal_test.go")
	if err != nil {
		t.Fatal(err)
	}
	body := string(src)
	// Confine the check to allEvents so incidental mentions elsewhere
	// don't mask a gap.
	start := strings.Index(body, "func allEvents()")
	end := strings.Index(body[start:], "\n}")
	block := body[start : start+end]
	covered := allEvents()
	if len(covered) != len(constructors) {
		t.Errorf("allEvents returns %d events but events.go has %d constructors", len(covered), len(constructors))
	}
	for _, name := range constructors {
		if !strings.Contains(block, name+"(") {
			t.Errorf("constructor %s is not exercised by allEvents", name)
		}
	}
}
