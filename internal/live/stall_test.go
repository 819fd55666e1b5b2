package live

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"speedlight/internal/packet"
)

// TestObserverStallExcludesNothing stalls the observer host for three
// exclusion periods (ExcludeAfter is 50 ms at the default RetryEvery)
// at the first result of a snapshot, with traffic on every channel.
// Results it has not taken yet are no silence: every snapshot completes
// with all 28 results and nothing excluded, channel state off and on.
// (With the recovery timers on a goroutine of their own, the stalled
// snapshot excluded every switch whose results waited in the queue.)
func TestObserverStallExcludesNothing(t *testing.T) {
	const stall = 3 * 50 * time.Millisecond
	for _, cs := range []bool{false, true} {
		t.Run(fmt.Sprintf("cs=%v", cs), func(t *testing.T) {
			ls := leafSpine(t)
			n, err := New(Config{Topo: ls.Topology, ChannelState: cs})
			if err != nil {
				t.Fatal(err)
			}
			var armed atomic.Bool
			var stalls atomic.Int32
			n.stall = func() {
				if armed.CompareAndSwap(true, false) {
					stalls.Add(1)
					time.Sleep(stall)
				}
			}
			n.Start()
			defer n.Stop()
			stop := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() { // every host to every other, once a millisecond
				defer wg.Done()
				for i := 0; ; i++ {
					for _, src := range ls.Hosts {
						for _, dst := range ls.Hosts {
							if src != dst {
								n.Inject(src.ID, &packet.Packet{DstHost: uint32(dst.ID), SrcPort: uint16(i), DstPort: 80, Proto: 6, Size: 200})
							}
						}
					}
					select {
					case <-stop:
						return
					case <-time.After(time.Millisecond):
					}
				}
			}()
			defer func() { close(stop); wg.Wait() }()
			for i := 0; i < 3; i++ {
				armed.Store(i == 1)
				_, done, err := n.TakeSnapshot(0)
				if err != nil {
					t.Fatal(err)
				}
				select {
				case g := <-done:
					if len(g.Excluded) != 0 || len(g.Results) != 28 {
						t.Errorf("snapshot %d: excluded=%v results=%d", g.ID, g.Excluded, len(g.Results))
					}
				case <-time.After(10 * time.Second):
					t.Fatalf("snapshot %d never finalized", i)
				}
			}
			if got := stalls.Load(); got != 1 {
				t.Errorf("the observer host stalled %d times, want 1", got)
			}
		})
	}
}
