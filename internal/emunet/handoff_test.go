package emunet_test

import (
	"fmt"
	"strings"
	"testing"

	"speedlight/internal/journal"
	"speedlight/internal/packet"
	"speedlight/internal/sim"
	"speedlight/internal/topology"
)

// TestResultHandoffAcrossShards runs the result handoff where it can
// race: a storm-shaped fabric (68-unit leaves, no data traffic, no
// channel state) whose control planes fall behind snapshots begun every
// 2 ms, so the observer's retries Poll bursts of more than one 64-result
// chunk out of a leaf in one instant. The switch writes its outbox on
// one shard while the observer reads it on another, at 2 and 4 shards;
// the journal, audit report, snapshot set and epoch traces must equal
// the serial run's, and every pooled initiation copy must come home.
func TestResultHandoffAcrossShards(t *testing.T) {
	ls, err := topology.NewLeafSpine(topology.LeafSpineConfig{
		Leaves: 4, Spines: 2, HostsPerLeaf: 32,
		HostLinkLatency:   sim.Microsecond,
		FabricLinkLatency: sim.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	cc := campaignConfig{topo: ls.Topology, seed: 29, snapshots: 6, leakCheck: true}
	serial := runCampaign(t, cc, 0)
	if serial.completed != cc.snapshots {
		t.Fatalf("serial run completed %d of %d snapshots", serial.completed, cc.snapshots)
	}
	evs, err := journal.ReadJSONL(strings.NewReader(serial.journal))
	if err != nil {
		t.Fatal(err)
	}
	// Every result a control plane emits is the one the observer takes
	// one observer delivery (50 µs) later: none lost, none twice, none
	// read from a slot rewritten in flight — which would be as
	// deterministic on the sharded engine as on the serial one.
	type hop struct {
		sw, port int
		dir      journal.Dir
		id       packet.SeqID
		at       int64
	}
	type instant struct {
		sw int
		at int64
	}
	inFlight, burst := map[hop]int{}, map[instant]int{}
	widest := 0
	for _, ev := range evs {
		switch ev.Kind {
		case journal.KindResult:
			inFlight[hop{ev.Switch, ev.Port, ev.Dir, ev.SnapshotID, ev.AtNs + 50_000}]++
			k := instant{ev.Switch, ev.AtNs}
			burst[k]++
			widest = max(widest, burst[k])
		case journal.KindObsResult:
			inFlight[hop{ev.Switch, ev.Port, ev.Dir, ev.SnapshotID, ev.AtNs}]--
		}
	}
	for h, n := range inFlight {
		if n != 0 {
			t.Errorf("result %+v: emitted minus accepted = %d, want 0", h, n)
		}
	}
	if widest <= 64 {
		t.Fatalf("widest result burst is %d, want more than one 64-result chunk", widest)
	}
	t.Logf("widest result burst: %d results from one switch in one instant", widest)
	for _, shards := range []int{2, 4} {
		t.Run(fmt.Sprintf("shards%d", shards), func(t *testing.T) {
			diffArtifacts(t, fmt.Sprintf("shards=%d", shards), serial, runCampaign(t, cc, shards))
		})
	}
}
