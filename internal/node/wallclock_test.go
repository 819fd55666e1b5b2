package node_test

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"speedlight/internal/audit"
	"speedlight/internal/core"
	"speedlight/internal/counters"
	"speedlight/internal/dataplane"
	"speedlight/internal/journal"
	"speedlight/internal/live"
	"speedlight/internal/observer"
	"speedlight/internal/packet"
	"speedlight/internal/sim"
	"speedlight/internal/snapstore"
	"speedlight/internal/topology"
	"speedlight/internal/wire"
)

// wallClocks are the two wall-clock runtimes. deploy builds one from the
// one Config both take, starts it, and returns its Runtime, the stop that
// ends it (run again at the test's end) and silence, which makes one
// switch stop answering for good: live's stops stepping (see hang),
// wire's loses its socket.
var wallClocks = []struct {
	name   string
	deploy func(t *testing.T, cfg live.Config) (rt *live.Runtime, stop func(), silence func(topology.NodeID))
}{
	{"live", func(t *testing.T, cfg live.Config) (*live.Runtime, func(), func(topology.NodeID)) {
		h := &hang{gate: make(chan struct{})}
		cfg.Metrics = h.metrics(cfg.Metrics)
		n, err := live.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		n.Start()
		stop := func() { h.release(); n.Stop() }
		t.Cleanup(stop)
		return n.Runtime, stop, h.silence
	}},
	{"wire", func(t *testing.T, cfg live.Config) (*live.Runtime, func(), func(topology.NodeID)) {
		d, err := wire.Deploy(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(d.Close)
		return d.Runtime, d.Close, d.CloseSwitch
	}},
}

// hang stops a live switch from stepping: once the switch is silenced,
// its units' metrics block in their next Read — the state the next
// snapshot ID records — and hold its goroutine until release.
type hang struct {
	node atomic.Int64 // the silenced switch + 1, or 0
	gate chan struct{}
	once sync.Once
}

func (h *hang) silence(id topology.NodeID) { h.node.Store(int64(id) + 1) }
func (h *hang) release()                   { h.once.Do(func() { close(h.gate) }) }

// metrics wraps every unit's metric (a packet counter where inner has
// none) in one that hangs once its switch is silenced.
func (h *hang) metrics(inner func(dataplane.UnitID) core.Metric) func(dataplane.UnitID) core.Metric {
	return func(id dataplane.UnitID) core.Metric {
		var m core.Metric = &counters.PacketCount{}
		if inner != nil {
			if im := inner(id); im != nil {
				m = im
			}
		}
		return hangingMetric{m, h, int64(id.Node) + 1}
	}
}

type hangingMetric struct {
	core.Metric
	h    *hang
	node int64
}

func (m hangingMetric) Read() uint64 {
	if m.h.node.Load() == m.node {
		<-m.h.gate
	}
	return m.Metric.Read()
}

// testbed is the 2x2x3 leaf-spine.
func testbed(t *testing.T) *topology.LeafSpine {
	t.Helper()
	ls, err := topology.NewLeafSpine(topology.LeafSpineConfig{
		Leaves: 2, Spines: 2, HostsPerLeaf: 3,
		HostLinkLatency: sim.Microsecond, FabricLinkLatency: sim.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ls
}

// trickle has every host send one small packet a millisecond to its
// neighbour on the same leaf until the returned stop function is
// called. Nothing crosses the fabric: every switch-to-switch channel
// stays idle and only a neighbour's marker can advance it.
func trickle(rt *live.Runtime, topo *topology.Topology) (stop func()) {
	var wg sync.WaitGroup
	quit := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			for _, sw := range topo.Switches {
				var hosts []topology.HostID
				for _, p := range sw.Ports {
					if p.Kind == topology.PeerHost {
						hosts = append(hosts, p.Host)
					}
				}
				for k, h := range hosts {
					rt.Inject(h, &packet.Packet{
						DstHost: uint32(hosts[(k+1)%len(hosts)]), SrcPort: uint16(i), DstPort: 80, Proto: 6, Size: 100,
					})
				}
			}
			select {
			case <-quit:
				return
			case <-time.After(time.Millisecond):
			}
		}
	}()
	return func() { close(quit); wg.Wait() }
}

// TestMarkersNeverReachHosts: a marker flood egresses every port of a
// switch, host-facing ones included, and must die there — hosts see
// data packets only. live floods on its retries, wire on every
// channel-state initiation; a trickle of same-leaf traffic gives the
// hosts deliveries to inspect.
func TestMarkersNeverReachHosts(t *testing.T) {
	for _, wc := range wallClocks {
		t.Run(wc.name, func(t *testing.T) {
			ls := testbed(t)
			h := &hosts{}
			rt, _, _ := wc.deploy(t, live.Config{
				Topo: ls.Topology, ChannelState: true, RetryEvery: 5 * time.Millisecond, OnDeliver: h.deliver,
			})
			defer trickle(rt, ls.Topology)()
			for round := 0; round < 3; round++ {
				_, done, err := rt.TakeSnapshot(0)
				if err != nil {
					t.Fatal(err)
				}
				select {
				case g := <-done:
					if !g.Consistent || len(g.Excluded) != 0 || len(g.Results) != 28 {
						t.Errorf("snapshot %d: consistent=%v excluded=%v results=%d",
							g.ID, g.Consistent, g.Excluded, len(g.Results))
					}
				case <-time.After(10 * time.Second):
					t.Fatalf("channel-state snapshot %d never completed", round)
				}
			}
			// Three snapshots can finish before the first trickled packet lands.
			for deadline := time.Now().Add(5 * time.Second); h.delivered.Load() == 0 && time.Now().Before(deadline); {
				time.Sleep(time.Millisecond)
			}
			if got := h.markers.Load(); got != 0 {
				t.Errorf("%d of %d deliveries to hosts were marker broadcasts", got, h.delivered.Load())
			}
			if h.delivered.Load() == 0 {
				t.Error("no data packet delivered: the check saw nothing")
			}
		})
	}
}

// TestTrainKeepsChannelFIFO: a flow injected faster than its leaf drains
// (a closed loop with a window of packets in the network, so the leaf's
// input backs up and trains form) arrives complete and in Seq order, on
// a same-leaf path and across a spine.
func TestTrainKeepsChannelFIFO(t *testing.T) {
	for _, wc := range wallClocks {
		for _, tc := range []struct {
			name string
			dst  uint32
		}{{"same leaf", 1}, {"cross spine", 4}} {
			t.Run(wc.name+"/"+tc.name, func(t *testing.T) {
				const total, window = 2000, 128
				var delivered atomic.Uint64
				var firstBad atomic.Pointer[string]
				rt, _, _ := wc.deploy(t, live.Config{
					Topo: testbed(t).Topology,
					OnDeliver: func(p *packet.Packet, _ topology.HostID) { // one flow, one delivering goroutine
						if want := delivered.Load(); p.Seq != want {
							msg := fmt.Sprintf("delivery %d carries Seq %d", want, p.Seq)
							firstBad.CompareAndSwap(nil, &msg)
						}
						delivered.Add(1)
					},
				})
				deadline := time.Now().Add(20 * time.Second)
				for sent := uint64(0); sent < total; {
					if sent-delivered.Load() >= window {
						if time.Now().After(deadline) {
							t.Fatalf("stalled: %d sent, %d delivered", sent, delivered.Load())
						}
						time.Sleep(50 * time.Microsecond)
						continue
					}
					if err := rt.Inject(0, &packet.Packet{DstHost: tc.dst, SrcPort: 7, DstPort: 80, Proto: 6, Size: 100, Seq: sent}); err != nil {
						t.Fatal(err)
					}
					sent++
				}
				for delivered.Load() < total && time.Now().Before(deadline) {
					time.Sleep(time.Millisecond)
				}
				if got := delivered.Load(); got != total {
					t.Errorf("delivered %d of %d", got, total)
				}
				if bad := firstBad.Load(); bad != nil {
					t.Errorf("FIFO broken: %s", *bad)
				}
			})
		}
	}
}

// TestDeliveredPacketsRoundTrip runs the benchmark's closed loop on both
// runtimes: tokens packets, each handed back by OnDeliver, rewritten
// whole and injected again under the next Seq, from every host to every
// other. Every delivery must carry exactly the fields injected under its
// Seq, to the host it names — a struct recycled while its consumer still
// held it would not — and every packet sent is delivered once. live
// delivers the injected pointers themselves; wire decodes deliveries
// into structs Inject handed over, so its deliveries come in no more
// distinct structs than the tokens and its free list (256) hold.
func TestDeliveredPacketsRoundTrip(t *testing.T) {
	const tokens, total = 128, 5000
	injected := func(seq uint64) packet.Packet {
		src := seq % 6
		return packet.Packet{
			SrcHost: uint32(src), DstHost: uint32((src + 1 + seq/6%5) % 6),
			SrcPort: uint16(seq), DstPort: 80 + uint16(seq>>16), Proto: 6, CoS: uint8(seq % 4),
			Size: uint32(64 + seq%1400), Seq: seq,
		}
	}
	for _, wc := range wallClocks {
		t.Run(wc.name, func(t *testing.T) {
			spare := map[string]int{"live": 0, "wire": 256}[wc.name]
			back := make(chan *packet.Packet, tokens)
			var mu sync.Mutex
			seen := make([]bool, total)
			structs := map[*packet.Packet]bool{}
			var delivered int
			var bad []string
			rt, _, _ := wc.deploy(t, live.Config{
				Topo: testbed(t).Topology,
				OnDeliver: func(p *packet.Packet, host topology.HostID) {
					mu.Lock()
					structs[p] = true
					switch {
					case p.Seq >= total || seen[p.Seq]:
						bad = append(bad, fmt.Sprintf("Seq %d delivered again or never sent", p.Seq))
					case *p != injected(p.Seq) || uint32(host) != p.DstHost:
						bad = append(bad, fmt.Sprintf("to host %d: %+v, injected %+v", host, *p, injected(p.Seq)))
					default:
						seen[p.Seq] = true
						delivered++
					}
					mu.Unlock()
					select {
					case back <- p:
					default: // a duplicate must not block the runtime; it is reported
					}
				},
			})
			for i := 0; i < tokens; i++ {
				back <- new(packet.Packet)
			}
			deadline := time.After(20 * time.Second)
			for seq := uint64(0); seq < total; seq++ {
				var p *packet.Packet
				select {
				case p = <-back:
				case <-deadline:
					t.Fatalf("stalled: %d of %d sent", seq, total)
				}
				*p = injected(seq)
				if err := rt.Inject(topology.HostID(p.SrcHost), p); err != nil {
					t.Fatal(err)
				}
			}
			await(t, "every packet sent to be delivered", func() bool {
				mu.Lock()
				defer mu.Unlock()
				return delivered+len(bad) >= total
			})
			mu.Lock()
			defer mu.Unlock()
			if len(bad) > 0 {
				t.Errorf("%d bad deliveries, the first: %s", len(bad), bad[0])
			}
			if delivered != total {
				t.Errorf("delivered %d of %d", delivered, total)
			}
			if len(structs) > tokens+spare {
				t.Errorf("deliveries came in %d distinct packets, want at most %d tokens + %d", len(structs), tokens, spare)
			}
		})
	}
}

// TestLonePacketIsNotHeld: nothing stays staged while the network is
// idle. One packet into it is delivered, and one snapshot then
// completes, with no further traffic and no retry (the retry period is
// an hour) to push anything along. live floods markers on retries only
// (TestRetryEvery), so its channel-state snapshot of an idle network
// waits for one: there the delivery is the check.
func TestLonePacketIsNotHeld(t *testing.T) {
	for _, wc := range wallClocks {
		for _, cs := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/cs=%v", wc.name, cs), func(t *testing.T) {
				delivered := make(chan uint64, 1)
				rt, _, _ := wc.deploy(t, live.Config{
					Topo: testbed(t).Topology, ChannelState: cs, RetryEvery: time.Hour,
					OnDeliver: func(p *packet.Packet, _ topology.HostID) { delivered <- p.Seq },
				})
				if err := rt.Inject(0, &packet.Packet{DstHost: 4, SrcPort: 7, DstPort: 80, Proto: 6, Size: 100, Seq: 77}); err != nil {
					t.Fatal(err)
				}
				select {
				case seq := <-delivered:
					if seq != 77 {
						t.Errorf("delivered Seq %d, want 77", seq)
					}
				case <-time.After(5 * time.Second):
					t.Fatal("a lone packet was held: not delivered with the network idle")
				}
				if cs && wc.name == "live" {
					return
				}
				_, done, err := rt.TakeSnapshot(0)
				if err != nil {
					t.Fatal(err)
				}
				select {
				case g := <-done:
					if !g.Consistent || len(g.Results) != 28 || len(g.Excluded) != 0 {
						t.Errorf("snapshot: consistent=%v results=%d excluded=%v", g.Consistent, len(g.Results), g.Excluded)
					}
				case <-time.After(5 * time.Second):
					t.Fatal("a result or marker was held: the snapshot did not complete with the network idle")
				}
			})
		}
	}
}

// TestRetryEvery holds both runtimes to one rule: a zero RetryEvery is
// the default period, 20 ms, and a negative one disables recovery. One
// channel-state snapshot of the idle testbed shows what a retry does.
// live's first initiations flood no markers, so its snapshot completes
// on a retry's flood, never sooner than the default period after it
// began, and with retries off not at all; wire's initiations flood, so
// it completes either way.
func TestRetryEvery(t *testing.T) {
	const retryDefault = 20 * time.Millisecond
	for _, wc := range wallClocks {
		for _, every := range []time.Duration{0, -1} {
			t.Run(fmt.Sprintf("%s/%v", wc.name, every), func(t *testing.T) {
				jr := journal.NewSet(0)
				rt, stop, _ := wc.deploy(t, live.Config{Topo: testbed(t).Topology, ChannelState: true, RetryEvery: every, Journal: jr})
				_, done, err := rt.TakeSnapshot(0)
				if err != nil {
					t.Fatal(err)
				}
				completes := wc.name == "wire" || every == 0
				wait := 10 * time.Second
				if !completes {
					wait = 5 * retryDefault
				}
				var g *observer.GlobalSnapshot
				select {
				case g = <-done:
				case <-time.After(wait):
				}
				stop() // the rings are quiet from here on
				if (g != nil) != completes {
					t.Errorf("snapshot completed: %v, want %v", g != nil, completes)
				}

				var begun int64
				var retried []time.Duration // after Begin
				for _, ev := range jr.Events() {
					switch ev.Kind {
					case journal.KindObsBegin:
						begun = ev.AtNs
					case journal.KindObsRetry:
						retried = append(retried, time.Duration(ev.AtNs-begun))
					}
				}
				switch {
				case every < 0 && len(retried) > 0:
					t.Errorf("retries disabled, yet %d journaled", len(retried))
				case wc.name == "live" && every == 0 && (len(retried) == 0 || retried[0] < retryDefault):
					t.Errorf("retries %v after Begin, want the first at %v or later", retried, retryDefault)
				}
			})
		}
	}
}

// TestSilentSwitchIsExcluded stops one leaf mid-run and holds both
// runtimes to the exclusion timer the Fabric derives from RetryEvery
// (20 ms, so max(50 ms, 40 ms)): every later snapshot is taken, and
// finalizes within ExcludeAfter + RetryEvery of its Begin, on the
// observer's clock, with exactly that leaf excluded. wakeup is room for
// the observer host to run its recovery check (Runtime.Timers) after
// the check falls due. The auditor agrees with every verdict.
func TestSilentSwitchIsExcluded(t *testing.T) {
	const every, excludeAfter, wakeup = 20 * time.Millisecond, 50 * time.Millisecond, 10 * time.Millisecond
	for _, wc := range wallClocks {
		t.Run(wc.name, func(t *testing.T) {
			ls := testbed(t)
			silent := ls.Leaves[1]
			rt, _, silence := wc.deploy(t, live.Config{Topo: ls.Topology, Journal: journal.NewSet(0)})
			snapshot := func() *observer.GlobalSnapshot {
				t.Helper()
				_, done, err := rt.TakeSnapshot(0)
				if err != nil {
					t.Fatalf("TakeSnapshot refused: %v", err)
				}
				select {
				case g := <-done:
					return g
				case <-time.After(10 * time.Second):
					t.Fatal("a snapshot never finalized")
					return nil
				}
			}
			if g := snapshot(); len(g.Excluded) != 0 || len(g.Results) != 28 {
				t.Fatalf("before the silence: excluded=%v results=%d", g.Excluded, len(g.Results))
			}
			silence(silent)
			for i := 0; i < 5; i++ {
				g := snapshot()
				took := time.Duration(g.CompletedAt.Sub(g.ScheduledAt))
				if !reflect.DeepEqual(g.Excluded, []topology.NodeID{silent}) || len(g.Results) != 18 || !g.Consistent {
					t.Errorf("snapshot %d: excluded=%v results=%d consistent=%v; want switch %d excluded, 18 results, consistent",
						g.ID, g.Excluded, len(g.Results), g.Consistent, silent)
				}
				if took < excludeAfter || took > excludeAfter+every+wakeup {
					t.Errorf("snapshot %d finalized %v after Begin, want between %v and %v", g.ID, took, excludeAfter, excludeAfter+every+wakeup)
				}
			}
			if d := rt.Audit().Disagreements; d != 0 {
				t.Errorf("audit: %d disagreement(s) with the observer", d)
			}
		})
	}
}

// TestEndpointsOnBothTransports: given a MetricsAddr and no Registry,
// either runtime makes the registry and serves the Fabric's endpoints
// from Start to Stop — the observer's counts, the audit of its journal,
// the snapshot history and readiness — and none after.
func TestEndpointsOnBothTransports(t *testing.T) {
	for _, wc := range wallClocks {
		t.Run(wc.name, func(t *testing.T) {
			rt, stop, _ := wc.deploy(t, live.Config{
				Topo: testbed(t).Topology, MetricsAddr: "127.0.0.1:0",
				Journal: journal.NewSet(0), Snapstore: snapstore.New(snapstore.Config{}),
			})
			_, done, err := rt.TakeSnapshot(0)
			if err != nil {
				t.Fatal(err)
			}
			var id packet.SeqID
			select {
			case g := <-done:
				id = g.ID
			case <-time.After(10 * time.Second):
				t.Fatal("snapshot never completed")
			}
			get := func(path string) (int, []byte) {
				t.Helper()
				resp, err := http.Get("http://" + rt.MetricsAddr() + path)
				if err != nil {
					t.Fatalf("GET %s: %v", path, err)
				}
				defer resp.Body.Close()
				body, err := io.ReadAll(resp.Body)
				if err != nil {
					t.Fatal(err)
				}
				return resp.StatusCode, body
			}

			if code, body := get("/metrics"); code != http.StatusOK || !strings.Contains(string(body), "speedlight_obs_snapshots_completed_total 1\n") {
				t.Errorf("/metrics = %d without speedlight_obs_snapshots_completed_total 1", code)
			}
			var rep audit.Report
			if code, body := get("/audit"); code != http.StatusOK {
				t.Errorf("/audit = %d: %s", code, body)
			} else if err := json.Unmarshal(body, &rep); err != nil {
				t.Errorf("/audit is not a report: %v", err)
			} else if rep.Disagreements != 0 {
				t.Errorf("/audit: %d disagreement(s) with the observer", rep.Disagreements)
			}
			var list snapstore.ListJSON
			if code, body := get("/snapshots"); code != http.StatusOK {
				t.Errorf("/snapshots = %d: %s", code, body)
			} else if err := json.Unmarshal(body, &list); err != nil {
				t.Errorf("/snapshots is not an epoch index: %v", err)
			} else if list.Retained != 1 || len(list.Epochs) != 1 || list.Epochs[0].Epoch != uint64(id) {
				t.Errorf("/snapshots retains %d epoch(s) %+v, want snapshot %d", list.Retained, list.Epochs, id)
			}
			if code, body := get("/readyz"); code != http.StatusOK {
				t.Errorf("/readyz = %d: %s", code, body)
			}

			stop()
			if addr := rt.MetricsAddr(); addr != "" {
				t.Errorf("MetricsAddr() = %q after the stop, want \"\"", addr)
			}
		})
	}
}

// TestStampsAreCausal holds both runtimes to the time rule of node.Host:
// a step runs at the instant its input was taken in, no earlier than
// the stamp of the step that sent that input. On a loaded run — a
// closed loop of packets between every pair of hosts while snapshots
// are taken back to back — every switch's ring never goes back in
// time, and neither do the observer host's own ObsResult stamps; every
// Initiate of snapshot k is stamped no earlier than its ObsBegin, every
// Record of k no earlier than the first Initiate of k, and every
// ObsResult no earlier than its unit's Record of that ID. The observer
// ring as a whole may step back: TakeSnapshot's caller and the observer
// host (its results and its recovery check) each read the clock before
// the Fabric's lock orders their appends.
func TestStampsAreCausal(t *testing.T) {
	for _, wc := range wallClocks {
		for _, cs := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/cs=%v", wc.name, cs), func(t *testing.T) {
				const tokens, snapshots = 128, 100
				topo := testbed(t).Topology
				jr := journal.NewSet(1 << 16)
				back := make(chan *packet.Packet, tokens) // room for every packet in flight
				rt, stop, _ := wc.deploy(t, live.Config{
					Topo: topo, ChannelState: cs, Journal: jr,
					OnDeliver: func(p *packet.Packet, _ topology.HostID) {
						select {
						case back <- p:
						default:
						}
					},
				})
				quit := make(chan struct{})
				var wg sync.WaitGroup
				wg.Add(1)
				go func() { // the closed loop; a token wire loses is made anew
					defer wg.Done()
					hosts := uint32(len(topo.Hosts))
					for i := uint32(0); ; i++ {
						var p *packet.Packet
						select {
						case <-quit:
							return
						case p = <-back:
						case <-time.After(time.Millisecond):
							p = new(packet.Packet)
						}
						src := i % hosts
						*p = packet.Packet{SrcHost: src, DstHost: (src + 1 + i/hosts%(hosts-1)) % hosts,
							SrcPort: uint16(i), DstPort: 80, Proto: 6, Size: 100}
						if rt.Inject(topology.HostID(src), p) != nil {
							return
						}
					}
				}()
				for i := 0; i < snapshots; i++ {
					_, done, err := rt.TakeSnapshot(0)
					if err != nil {
						t.Fatal(err)
					}
					select {
					case <-done:
					case <-time.After(10 * time.Second):
						t.Fatalf("snapshot %d never finalized", i)
					}
				}
				close(quit)
				wg.Wait()
				stop() // the rings are quiet from here on
				if lost := jr.Overwritten(); lost != 0 {
					t.Fatalf("the rings overwrote %d events", lost)
				}

				type unit struct {
					sw, port int
					dir      journal.Dir
				}
				begun := map[packet.SeqID]int64{}
				firstInit := map[packet.SeqID]int64{}
				records := map[unit][]journal.Event{}
				for _, sw := range topo.Switches {
					var last int64
					for _, ev := range jr.For(int(sw.ID)).Events() {
						if ev.AtNs < last {
							t.Fatalf("switch %d: %s at %d ns after an event at %d ns", sw.ID, ev.Kind, ev.AtNs, last)
						}
						last = ev.AtNs
						switch ev.Kind {
						case journal.KindInitiate:
							if at, ok := firstInit[ev.SnapshotID]; !ok || ev.AtNs < at {
								firstInit[ev.SnapshotID] = ev.AtNs
							}
						case journal.KindRecord:
							u := unit{ev.Switch, ev.Port, ev.Dir}
							records[u] = append(records[u], ev)
						}
					}
				}
				var results []journal.Event
				var last int64
				for _, ev := range jr.Observer().Events() {
					switch ev.Kind {
					case journal.KindObsBegin:
						begun[ev.SnapshotID] = ev.AtNs
					case journal.KindObsResult:
						if ev.AtNs < last {
							t.Fatalf("the observer host stamped a result %d ns after one at %d ns", ev.AtNs, last)
						}
						last = ev.AtNs
						results = append(results, ev)
					}
				}
				if len(records) == 0 || len(results) == 0 {
					t.Fatalf("%d records and %d observer results: the check saw nothing", len(records), len(results))
				}
				for id, at := range firstInit {
					if b, ok := begun[id]; !ok || at < b {
						t.Errorf("snapshot %d: first initiate at %d ns, begun at %d ns (journaled: %v)", id, at, b, ok)
					}
				}
				for _, recs := range records {
					for _, ev := range recs {
						if at, ok := firstInit[ev.NewID]; !ok || ev.AtNs < at {
							t.Errorf("switch %d port %d %s: record of %d at %d ns, first initiate at %d ns (journaled: %v)",
								ev.Switch, ev.Port, ev.Dir, ev.NewID, ev.AtNs, at, ok)
						}
					}
				}
				for _, res := range results {
					var rec *journal.Event
					recs := records[unit{res.Switch, res.Port, res.Dir}]
					for i := range recs {
						if recs[i].OldID < res.SnapshotID && res.SnapshotID <= recs[i].NewID {
							rec = &recs[i]
							break
						}
					}
					switch {
					case rec == nil:
						t.Errorf("switch %d port %d %s: result of %d without a record of it", res.Switch, res.Port, res.Dir, res.SnapshotID)
					case res.AtNs < rec.AtNs:
						t.Errorf("switch %d port %d %s: result of %d at %d ns, recorded at %d ns",
							res.Switch, res.Port, res.Dir, res.SnapshotID, res.AtNs, rec.AtNs)
					}
				}
			})
		}
	}
}
