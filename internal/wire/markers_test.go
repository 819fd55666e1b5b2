package wire

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"speedlight/internal/node"
	"speedlight/internal/packet"
	"speedlight/internal/topology"
)

// TestMarkersNeverReachHosts: every initiation floods markers out of
// every port in channel-state mode; the copies bound for host-facing
// ports must die at the switch, not cross the sink socket to OnDeliver.
// Each host trickles one packet a millisecond to a neighbour on its
// leaf, so that hosts have deliveries to inspect.
func TestMarkersNeverReachHosts(t *testing.T) {
	ls := leafSpine(t)
	var markers, delivered atomic.Int64
	d, err := Deploy(Config{
		Topo:         ls.Topology,
		ChannelState: true,
		RetryEvery:   5 * time.Millisecond,
		OnDeliver: func(p *packet.Packet, _ topology.HostID) {
			delivered.Add(1)
			if topology.HostID(p.DstHost) == node.BroadcastHost {
				markers.Add(1)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	var wg sync.WaitGroup
	quit := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			for _, sw := range ls.Switches {
				hosts := ls.HostsOn(sw.ID)
				for k, h := range hosts {
					d.Inject(h.ID, &packet.Packet{
						DstHost: uint32(hosts[(k+1)%len(hosts)].ID), SrcPort: uint16(i), DstPort: 80, Proto: 6, Size: 100,
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
	defer func() { close(quit); wg.Wait() }()

	for round := 0; round < 3; round++ {
		_, done, err := d.TakeSnapshot()
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
	for deadline := time.Now().Add(5 * time.Second); delivered.Load() == 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if got := markers.Load(); got != 0 {
		t.Errorf("%d of %d deliveries to hosts were marker broadcasts", got, delivered.Load())
	}
	if delivered.Load() == 0 {
		t.Error("no data packet delivered: the check saw nothing")
	}
}
