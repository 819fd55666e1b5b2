package node_test

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"testing"
	"time"

	"speedlight/internal/emunet"
	"speedlight/internal/journal"
	"speedlight/internal/live"
	"speedlight/internal/reconcile"
	"speedlight/internal/sim"
	"speedlight/internal/telemetry"
	"speedlight/internal/topology"
)

// protocolCounts is the oracle's table: each protocol counter and the
// journal events it counts, of kind with Flag flag (-1: either).
var protocolCounts = []struct {
	name string
	kind journal.Kind
	flag int8
}{
	{"speedlight_cp_notifs_serviced_total", journal.KindNotifService, -1},
	{"speedlight_cp_initiations_total", journal.KindInitiate, 0},
	{"speedlight_cp_reinitiations_total", journal.KindInitiate, 1},
	{"speedlight_cp_polls_total", journal.KindPoll, -1},
	{"speedlight_cp_results_total", journal.KindResult, -1},
	{"speedlight_cp_results_inconsistent_total", journal.KindResult, 0},
	{"speedlight_dp_notifs_generated_total", journal.KindNotifGen, -1},
	{"speedlight_dp_notifs_dropped_total", journal.KindNotifDrop, -1},
	{"speedlight_dp_rollovers_total", journal.KindRollover, -1},
	{"speedlight_obs_snapshots_begun_total", journal.KindObsBegin, -1},
	{"speedlight_obs_snapshots_completed_total", journal.KindObsComplete, -1},
	{"speedlight_obs_snapshots_inconsistent_total", journal.KindObsComplete, 0},
	{"speedlight_obs_retries_total", journal.KindObsRetry, -1},
	{"speedlight_obs_exclusions_total", journal.KindObsExclude, -1},
}

const pendingGauge = "speedlight_obs_snapshots_pending"

// journalCounts counts evs the way protocolCounts says, and the pending
// gauge as snapshots begun less completed.
func journalCounts(evs []journal.Event) map[string]int64 {
	want := map[string]int64{}
	for _, ev := range evs {
		for _, c := range protocolCounts {
			if ev.Kind == c.kind && (c.flag < 0 || ev.Flag == (c.flag == 1)) {
				want[c.name]++
			}
		}
	}
	want[pendingGauge] = want["speedlight_obs_snapshots_begun_total"] - want["speedlight_obs_snapshots_completed_total"]
	return want
}

// gathered reads every counter and gauge series of reg by full name.
func gathered(reg *telemetry.Registry) map[string]int64 {
	got := map[string]int64{}
	for _, s := range reg.Gather() {
		switch s.Kind {
		case telemetry.KindCounter:
			got[s.FullName()] = int64(s.Value)
		case telemetry.KindGauge:
			got[s.FullName()] = s.GaugeValue
		}
	}
	return got
}

// agree checks every protocol counter against the journal's events and
// returns the counters.
func agree(t *testing.T, got map[string]int64, set *journal.Set) map[string]int64 {
	t.Helper()
	if lost := set.Overwritten(); lost != 0 {
		t.Fatalf("the rings overwrote %d events", lost)
	}
	want := journalCounts(set.Events())
	for _, name := range append(names(), pendingGauge) {
		if got[name] != want[name] {
			t.Errorf("%s = %d, the journal holds %d", name, got[name], want[name])
		}
	}
	return got
}

func names() []string {
	var out []string
	for _, c := range protocolCounts {
		out = append(out, c.name)
	}
	return out
}

// desFabric is a leaf-spine with every link at 1 µs.
func desFabric(t *testing.T, leaves, spines, hosts int) *topology.LeafSpine {
	t.Helper()
	ls, err := topology.NewLeafSpine(topology.LeafSpineConfig{
		Leaves: leaves, Spines: spines, HostsPerLeaf: hosts,
		HostLinkLatency: sim.Microsecond, FabricLinkLatency: sim.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ls
}

// traffic has a random host send a random other host a pooled packet
// every 3 µs until the engine reaches until.
func traffic(n *emunet.Network, until sim.Time) {
	eng := n.Engine()
	r := eng.NewRand()
	hosts := n.Topo().HostIDs()
	var seq uint16
	eng.NewTicker(3*sim.Microsecond, func() {
		src, dst := hosts[r.Intn(len(hosts))], hosts[r.Intn(len(hosts))]
		if eng.Now() >= until || src == dst {
			return
		}
		seq++
		pkt := n.NewPacket()
		pkt.DstHost, pkt.SrcPort, pkt.DstPort, pkt.Proto, pkt.Size = uint32(dst), 1000+seq, 80, 6, 1000
		n.InjectFromHost(src, pkt)
	})
}

// snapshots schedules count snapshots gap apart, each 1 ms ahead, and
// runs the last one's gap and a 100 ms drain out.
func snapshots(t *testing.T, n *emunet.Network, count int, gap sim.Duration) {
	t.Helper()
	for i := 0; i < count; i++ {
		if _, err := n.ScheduleSnapshot(n.Engine().Now().Add(sim.Millisecond)); err != nil {
			t.Fatalf("snapshot %d: %v", i, err)
		}
		n.RunFor(gap)
	}
	n.RunFor(100 * sim.Millisecond)
}

// storm is snapshot_storm's shape at a smaller size: no data traffic,
// snapshots back to back on a leaf-spine with wide leaves.
func storm(t *testing.T, reg *telemetry.Registry, set *journal.Set) *emunet.Network {
	t.Helper()
	n, err := emunet.New(emunet.Config{Topo: desFabric(t, 4, 2, 12).Topology, Seed: 1, Registry: reg, Journal: set})
	if err != nil {
		t.Fatal(err)
	}
	snapshots(t, n, 6, 20*sim.Millisecond)
	if got := len(n.Snapshots()); got != 6 {
		t.Fatalf("%d of 6 snapshots completed", got)
	}
	return n
}

// TestProtocolCountersAreJournalCounts is the oracle of the protocol
// counters: on every harness each equals the number of journal events
// of its (kind, flag), and the pending gauge begun less completed.
func TestProtocolCountersAreJournalCounts(t *testing.T) {
	t.Run("storm", func(t *testing.T) {
		reg, set := telemetry.NewRegistry(), journal.NewSet(1<<16)
		n := storm(t, reg, set)
		got := agree(t, gathered(reg), set)
		if got["speedlight_cp_results_total"] != 6*int64(unitsOf(n.Topo())) {
			t.Errorf("%d results, want 6 epochs of %d units", got["speedlight_cp_results_total"], unitsOf(n.Topo()))
		}
	})

	t.Run("lossy", func(t *testing.T) {
		reg, set := telemetry.NewRegistry(), journal.NewSet(1<<17)
		ls := desFabric(t, 4, 2, 2)
		n, err := emunet.New(emunet.Config{
			Topo: ls.Topology, Seed: 1, MaxID: 16, WrapAround: true, ChannelState: true,
			LinkLossProb: 0.2, NotifCapacity: 4, RetryAfter: 2 * sim.Millisecond, ExcludeAfter: 3 * sim.Millisecond,
			Registry: reg, Journal: set,
		})
		if err != nil {
			t.Fatal(err)
		}
		traffic(n, n.Engine().Now().Add(10*sim.Millisecond))
		snapshots(t, n, 20, 2*sim.Millisecond)
		got := agree(t, gathered(reg), set)
		for _, name := range []string{
			"speedlight_cp_reinitiations_total", "speedlight_cp_polls_total", "speedlight_obs_retries_total",
			"speedlight_obs_exclusions_total", "speedlight_dp_notifs_dropped_total", "speedlight_dp_rollovers_total",
		} {
			if got[name] == 0 {
				t.Errorf("%s = 0: the lossy run did not exercise it", name)
			}
		}
	})

	t.Run("churn", func(t *testing.T) {
		reg, set := telemetry.NewRegistry(), journal.NewSet(1<<17)
		ls := desFabric(t, 4, 2, 2)
		n, err := emunet.New(emunet.Config{Topo: ls.Topology, Seed: 1, MaxID: 64, WrapAround: true, ChannelState: true,
			LinkLossProb: 0.02, Registry: reg, Journal: set})
		if err != nil {
			t.Fatal(err)
		}
		ctrl, err := reconcile.New(reconcile.Config{Fabric: n, Proc: n.Engine().Proc(sim.GlobalDomain)})
		if err != nil {
			t.Fatal(err)
		}
		reconcile.RollingUpgrade(ls.Spines, 3*sim.Millisecond, 2*sim.Millisecond, 4*sim.Millisecond).Schedule(ctrl)
		ctrl.Start()
		traffic(n, n.Engine().Now().Add(16*sim.Millisecond))
		snapshots(t, n, 4, 2*sim.Millisecond)
		if len(ctrl.Log()) == 0 {
			t.Fatal("the scenario applied no churn")
		}
		agree(t, gathered(reg), set)
	})

	t.Run("live", func(t *testing.T) {
		reg, set := telemetry.NewRegistry(), journal.NewSet(1<<16)
		topo := testbed(t).Topology
		n, err := live.New(live.Config{Topo: topo, ChannelState: true, Registry: reg, Journal: set})
		if err != nil {
			t.Fatal(err)
		}
		n.Start()
		stopTraffic := trickle(n.Runtime, topo)
		quit, scraped := make(chan struct{}), make(chan struct{})
		go func() { // a scrape while the switch goroutines append
			defer close(scraped)
			for {
				select {
				case <-quit:
					return
				default:
					reg.Gather()
				}
			}
		}()
		stop := sync.OnceFunc(func() { close(quit); <-scraped; stopTraffic(); n.Stop() })
		t.Cleanup(stop)
		for i := 0; i < 10; i++ {
			_, done, err := n.TakeSnapshot(0)
			if err != nil {
				t.Fatal(err)
			}
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				t.Fatalf("snapshot %d never finalized", i)
			}
		}
		stop() // the rings are quiet from here on
		got := agree(t, gathered(reg), set)
		if got["speedlight_obs_snapshots_completed_total"] != 10 {
			t.Errorf("%d snapshots completed, want 10", got["speedlight_obs_snapshots_completed_total"])
		}
	})

	// A registry without a journal reads the same counts from rings that
	// keep no events, and the journal surfaces stay detached.
	t.Run("registry-only", func(t *testing.T) {
		reg, set := telemetry.NewRegistry(), journal.NewSet(1<<16)
		n := storm(t, reg, set)
		want := agree(t, gathered(reg), set)
		bare := telemetry.NewRegistry()
		n = storm(t, bare, nil)
		got := gathered(bare)
		for _, name := range append(names(), pendingGauge) {
			if got[name] != want[name] {
				t.Errorf("%s = %d without a journal, %d with one", name, got[name], want[name])
			}
		}
		if n.Journal() != nil || n.Audit() != nil {
			t.Errorf("Journal() = %v, Audit() = %v, want nil without a journal", n.Journal(), n.Audit())
		}
		mux := telemetry.NewMuxConfig(n.Endpoints(telemetry.NewHealth(), nil))
		for _, path := range []string{"/journal", "/audit", "/trace", "/trace/epoch", "/trace/critical"} {
			rec := httptest.NewRecorder()
			mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
			if rec.Code != http.StatusServiceUnavailable {
				t.Errorf("%s = %d, want 503", path, rec.Code)
			}
		}
	})

	// Two networks built one after the other on one registry and one set
	// count each transition once.
	t.Run("shared", func(t *testing.T) {
		reg, set := telemetry.NewRegistry(), journal.NewSet(1<<17)
		a := storm(t, reg, set)
		storm(t, reg, set)
		got := agree(t, gathered(reg), set)
		if want := 2 * 6 * int64(unitsOf(a.Topo())); got["speedlight_cp_results_total"] != want {
			t.Errorf("%d results over two networks, want %d", got["speedlight_cp_results_total"], want)
		}
	})

	// The registry's families, by name and kind, are what they were when
	// each counter was a telemetry.Counter of its own.
	t.Run("families", func(t *testing.T) {
		reg := telemetry.NewRegistry()
		if _, err := emunet.New(emunet.Config{Topo: desFabric(t, 2, 2, 3).Topology, Registry: reg}); err != nil {
			t.Fatal(err)
		}
		if got := families(reg); !slices.Equal(got, desFamilies) {
			t.Errorf("DES families:\n%s\nwant\n%s", got, desFamilies)
		}
		reg = telemetry.NewRegistry()
		if _, err := live.New(live.Config{Topo: testbed(t).Topology, Registry: reg}); err != nil {
			t.Fatal(err)
		}
		if got := families(reg); !slices.Equal(got, liveFamilies) {
			t.Errorf("live families:\n%s\nwant\n%s", got, liveFamilies)
		}
	})
}

// unitsOf counts a topology's processing units.
func unitsOf(topo *topology.Topology) int {
	units := 0
	for _, sw := range topo.Switches {
		units += 2 * len(sw.Ports)
	}
	return units
}

// families lists reg's families as "name kind", sorted.
func families(reg *telemetry.Registry) []string {
	var out []string
	for _, s := range reg.Gather() {
		out = append(out, fmt.Sprintf("%s %s", s.Name, s.Kind))
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// desFamilies and liveFamilies are families' golden lists for a DES
// and a live deployment with a registry and nothing else attached.
var desFamilies = []string{
	"speedlight_cp_initiations_total counter",
	"speedlight_cp_notifs_serviced_total counter",
	"speedlight_cp_polls_total counter",
	"speedlight_cp_reinitiations_total counter",
	"speedlight_cp_results_inconsistent_total counter",
	"speedlight_cp_results_total counter",
	"speedlight_dp_initiations_total counter",
	"speedlight_dp_markers_total counter",
	"speedlight_dp_notif_queue_high_water gauge",
	"speedlight_dp_notifs_dropped_total counter",
	"speedlight_dp_notifs_generated_total counter",
	"speedlight_dp_packets_egress_total counter",
	"speedlight_dp_packets_ingress_total counter",
	"speedlight_dp_recirculations_total counter",
	"speedlight_dp_rollovers_total counter",
	"speedlight_net_packets_delivered_total counter",
	"speedlight_net_packets_injected_total counter",
	"speedlight_net_queue_drops_total counter",
	"speedlight_net_queue_high_water gauge",
	"speedlight_net_switch_packets_total counter",
	"speedlight_net_sync_spread_us histogram",
	"speedlight_net_wire_drops_total counter",
	"speedlight_obs_completion_latency_us histogram",
	"speedlight_obs_exclusions_total counter",
	"speedlight_obs_results_ignored_total counter",
	"speedlight_obs_retries_total counter",
	"speedlight_obs_snapshots_begun_total counter",
	"speedlight_obs_snapshots_completed_total counter",
	"speedlight_obs_snapshots_inconsistent_total counter",
	"speedlight_obs_snapshots_pending gauge",
}

var liveFamilies = []string{
	"speedlight_cp_initiations_total counter",
	"speedlight_cp_notifs_serviced_total counter",
	"speedlight_cp_polls_total counter",
	"speedlight_cp_reinitiations_total counter",
	"speedlight_cp_results_inconsistent_total counter",
	"speedlight_cp_results_total counter",
	"speedlight_dp_initiations_total counter",
	"speedlight_dp_markers_total counter",
	"speedlight_dp_notif_queue_high_water gauge",
	"speedlight_dp_notifs_dropped_total counter",
	"speedlight_dp_notifs_generated_total counter",
	"speedlight_dp_packets_egress_total counter",
	"speedlight_dp_packets_ingress_total counter",
	"speedlight_dp_recirculations_total counter",
	"speedlight_dp_rollovers_total counter",
	"speedlight_live_events_total counter",
	"speedlight_live_inbox_drops_total counter",
	"speedlight_live_inbox_high_water gauge",
	"speedlight_live_obs_queue_high_water gauge",
	"speedlight_live_packets_delivered_total counter",
	"speedlight_live_switch_events_total counter",
	"speedlight_obs_completion_latency_us histogram",
	"speedlight_obs_exclusions_total counter",
	"speedlight_obs_results_ignored_total counter",
	"speedlight_obs_retries_total counter",
	"speedlight_obs_snapshots_begun_total counter",
	"speedlight_obs_snapshots_completed_total counter",
	"speedlight_obs_snapshots_inconsistent_total counter",
	"speedlight_obs_snapshots_pending gauge",
}
