package live

import (
	"sync"
	"testing"
	"time"

	"speedlight/internal/journal"
	"speedlight/internal/packet"
	"speedlight/internal/telemetry"
)

// TestChannelStateCompletesWithoutRetry: with data on every channel
// that gates a unit — every host sends to every other host, the source
// port walking so ECMP uses both spines — a channel-state snapshot
// finishes on the protocol alone. The retry timer is a second away and
// must not be what completes it: no obs_retry, no re-initiation.
func TestChannelStateCompletesWithoutRetry(t *testing.T) {
	ls := leafSpine(t)
	reg := telemetry.NewRegistry()
	n, err := New(Config{
		Topo:         ls.Topology,
		ChannelState: true,
		RetryEvery:   time.Second,
		Registry:     reg,
		Journal:      journal.NewSet(0),
	})
	if err != nil {
		t.Fatal(err)
	}
	n.Start()
	defer n.Stop()

	var wg sync.WaitGroup
	quit := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			for _, src := range ls.Hosts {
				for _, dst := range ls.Hosts {
					if src != dst {
						n.Inject(src.ID, &packet.Packet{
							DstHost: uint32(dst.ID), SrcPort: uint16(i), DstPort: 80, Proto: 6, Size: 200,
						})
					}
				}
			}
			select {
			case <-quit:
				return
			case <-time.After(time.Millisecond):
			}
		}
	}()
	defer func() { close(quit); wg.Wait() }()

	for round := 0; round < 3; round++ {
		_, done, err := n.TakeSnapshot(0)
		if err != nil {
			t.Fatal(err)
		}
		select {
		case g := <-done:
			if !g.Consistent || len(g.Excluded) != 0 || len(g.Results) != 28 {
				t.Errorf("snapshot %d: consistent=%v excluded=%v results=%d",
					g.ID, g.Consistent, g.Excluded, len(g.Results))
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("channel-state snapshot %d never completed", round)
		}
	}
	for _, ev := range n.Journal().Events() {
		if ev.Kind == journal.KindObsRetry {
			t.Errorf("snapshot %d needed a retry of switch %d", ev.SnapshotID, ev.Switch)
		}
	}
	if got := counter(reg, "speedlight_cp_reinitiations_total"); got != 0 {
		t.Errorf("speedlight_cp_reinitiations_total = %d, want 0", got)
	}
}
