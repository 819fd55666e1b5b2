package live

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"speedlight/internal/dataplane"
	"speedlight/internal/invariant"
	"speedlight/internal/journal"
	"speedlight/internal/node"
	"speedlight/internal/observer"
	"speedlight/internal/packet"
	"speedlight/internal/snapstore"
	"speedlight/internal/telemetry"
	"speedlight/internal/topology"
)

// servedState is the /snapshots?epoch=N response shape the test cares
// about.
type servedState struct {
	Epoch      uint64 `json:"epoch"`
	Seq        uint64 `json:"seq"`
	Consistent bool   `json:"consistent"`
	Units      []struct {
		Unit       string `json:"unit"`
		Value      uint64 `json:"value"`
		Consistent bool   `json:"consistent"`
	} `json:"units"`
}

// TestConcurrentQueryVsIngest is the query-plane torture test: N
// goroutines hammer /snapshots and /snapshots?epoch= over real HTTP
// while the live campaign seals epoch after epoch into the store.
// Every served cut must be internally consistent — same epoch, fully
// consistent units under a consistent verdict — and immutable: two
// reads of the same epoch, however far apart and however much the
// store compacted in between, must return byte-identical cuts.
// Run with -race, this also proves ingestion and the query plane
// share no unsynchronized state.
func TestConcurrentQueryVsIngest(t *testing.T) {
	ls := leafSpine(t)
	store := snapstore.New(snapstore.Config{Retention: 32, CheckpointEvery: 4})
	eng := invariant.New(invariant.Config{})
	// A continuously-evaluated invariant that holds throughout: packet
	// counters never regress.
	var units []dataplane.UnitID
	for port := 0; port < 3; port++ {
		units = append(units, dataplane.UnitID{Node: 0, Port: port, Dir: dataplane.Ingress})
	}
	eng.Register(invariant.Monotone("counters-monotone", units))

	var anomalies atomic.Int32
	n, err := New(Config{
		Topo:        ls.Topology,
		Journal:     journal.NewSet(1 << 12),
		Registry:    telemetry.NewRegistry(),
		MetricsAddr: "127.0.0.1:0",
		Snapstore:   store,
		Invariants:  eng,
		OnAnomaly: func(reason string, _ packet.SeqID, _ []journal.Event) {
			anomalies.Add(1)
			t.Logf("anomaly: %s", reason)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	n.Start()
	defer n.Stop()
	addr := n.MetricsAddr()
	if addr == "" {
		t.Fatal("metrics server did not bind")
	}
	base := "http://" + addr

	// Traffic so sealed cuts carry real, changing counters.
	var stopTraffic atomic.Bool
	var wg sync.WaitGroup
	for h := topology.HostID(0); h < 4; h++ {
		h := h
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; !stopTraffic.Load(); i++ {
				n.Inject(h, &packet.Packet{
					DstHost: uint32((int(h) + 1 + i%5) % 6),
					SrcPort: uint16(i), DstPort: 9000, Proto: 6, Size: 200,
				})
				if i%32 == 0 {
					time.Sleep(time.Microsecond)
				}
			}
		}()
	}

	// Query hammer: each goroutine lists retained epochs, re-reads
	// random ones, and checks internal consistency plus immutability
	// against the first served copy of each epoch.
	const queriers = 8
	var (
		stopQuery atomic.Bool
		queries   atomic.Int64
		served    sync.Map // epoch -> first served units JSON
		failMu    sync.Mutex
		failure   string
	)
	fail := func(format string, args ...any) {
		failMu.Lock()
		if failure == "" {
			failure = fmt.Sprintf(format, args...)
		}
		failMu.Unlock()
		stopQuery.Store(true)
	}
	client := &http.Client{Timeout: 5 * time.Second}
	for q := 0; q < queriers; q++ {
		q := q
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(q)))
			for !stopQuery.Load() {
				resp, err := client.Get(base + "/snapshots")
				if err != nil {
					fail("list: %v", err)
					return
				}
				var list struct {
					Epochs []struct {
						Epoch uint64 `json:"epoch"`
					} `json:"epochs"`
				}
				err = json.NewDecoder(resp.Body).Decode(&list)
				resp.Body.Close()
				if err != nil {
					fail("list decode: %v", err)
					return
				}
				if len(list.Epochs) == 0 {
					continue
				}
				target := list.Epochs[rng.Intn(len(list.Epochs))].Epoch
				resp, err = client.Get(fmt.Sprintf("%s/snapshots?epoch=%d", base, target))
				if err != nil {
					fail("state: %v", err)
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusNotFound {
					continue // compacted away between list and read; fine
				}
				if resp.StatusCode != http.StatusOK {
					fail("state %d: HTTP %d: %s", target, resp.StatusCode, body)
					return
				}
				var st servedState
				if err := json.Unmarshal(body, &st); err != nil {
					fail("state decode: %v", err)
					return
				}
				if st.Epoch != target {
					fail("asked for epoch %d, served %d", target, st.Epoch)
					return
				}
				if st.Consistent {
					for _, u := range st.Units {
						if !u.Consistent {
							fail("epoch %d consistent, but unit %s is not", target, u.Unit)
							return
						}
					}
				}
				unitsJSON, _ := json.Marshal(st.Units)
				if prev, loaded := served.LoadOrStore(target, string(unitsJSON)); loaded && prev.(string) != string(unitsJSON) {
					fail("epoch %d served two different cuts:\n%s\nvs\n%s", target, prev, unitsJSON)
					return
				}
				queries.Add(1)
			}
		}()
	}

	// The campaign: seal epochs while the hammer runs. Ingestion must
	// never block on readers — each snapshot completes promptly.
	const epochs = 24
	for i := 0; i < epochs; i++ {
		_, done, err := n.TakeSnapshot(time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("snapshot %d never completed: ingestion blocked?", i)
		}
	}
	stopQuery.Store(true)
	stopTraffic.Store(true)
	wg.Wait()

	if failure != "" {
		t.Fatal(failure)
	}
	if store.Sealed() != epochs {
		t.Errorf("store sealed %d epochs, want %d", store.Sealed(), epochs)
	}
	if queries.Load() == 0 {
		t.Error("no successful queries during the campaign")
	}
	st := eng.Status()
	if len(st) != 1 || st[0].Evals == 0 {
		t.Errorf("invariant never evaluated: %+v", st)
	}
	if v := st[0].Violations; v != 0 {
		t.Errorf("monotone invariant violated %d times on a clean campaign", v)
	}
	t.Logf("%d queries against %d sealed epochs, %d anomalies", queries.Load(), epochs, anomalies.Load())
}

// TestSnapstoreLagFlipsReadyz seeds artificial ingestion lag and
// checks the readiness probe reports it.
func TestSnapstoreLagFlipsReadyz(t *testing.T) {
	ls := leafSpine(t)
	store := snapstore.New(snapstore.Config{})
	n, err := New(Config{
		Topo:        ls.Topology,
		MetricsAddr: "127.0.0.1:0",
		Snapstore:   store,
	})
	if err != nil {
		t.Fatal(err)
	}
	n.Start()
	defer n.Stop()
	base := "http://" + n.MetricsAddr()

	get := func(path string) int {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		return resp.StatusCode
	}
	if code := get("/readyz"); code != http.StatusOK {
		t.Fatalf("/readyz = %d before lag, want 200", code)
	}
	// Simulate the observer racing ahead of the store: epochs completed
	// with nothing sealed. (The completed-epoch counter lives in
	// node.Sink, so the lag is driven through it, not poked.)
	n.sink.Snapstore = nil
	const lag = node.SnapstoreLagMax + 1
	for id := packet.SeqID(1); id <= lag; id++ {
		n.sink.Complete(&observer.GlobalSnapshot{ID: id, Consistent: true}, 0)
		want := http.StatusOK // ready up to the threshold, not one past it
		if id == lag {
			want = http.StatusServiceUnavailable
		}
		if code := get("/readyz"); code != want {
			t.Fatalf("/readyz = %d with lag %d (max %d), want %d", code, id, node.SnapstoreLagMax, want)
		}
	}
	if code := get("/healthz"); code != http.StatusServiceUnavailable {
		t.Fatalf("/healthz = %d with failing check, want 503", code)
	}
	// The store catches up.
	for id := packet.SeqID(1); id <= lag; id++ {
		store.Ingest(&observer.GlobalSnapshot{ID: id, Consistent: true}, 0)
	}
	if code := get("/readyz"); code != http.StatusOK {
		t.Fatalf("/readyz = %d after lag cleared, want 200", code)
	}
}
