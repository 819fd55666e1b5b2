// Command tracegen records one of the built-in application workloads
// as a replayable trace CSV, for use with `speedlight -workload trace`
// or any external analysis.
//
// Usage:
//
//	tracegen -workload hadoop -duration 10ms -out hadoop.csv
//	tracegen -workload memcache -seed 7 -out - | head
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"speedlight/internal/emunet"
	"speedlight/internal/packet"
	"speedlight/internal/sim"
	"speedlight/internal/topology"
	"speedlight/internal/workload"
)

func main() {
	var (
		wl       = flag.String("workload", "uniform", "workload to record: uniform, hadoop, graphx, memcache")
		duration = flag.Duration("duration", 10*time.Millisecond, "virtual time to record")
		seed     = flag.Int64("seed", 1, "randomness seed")
		leaves   = flag.Int("leaves", 2, "leaf switches")
		spines   = flag.Int("spines", 2, "spine switches")
		hostsPer = flag.Int("hosts", 3, "hosts per leaf")
		out      = flag.String("out", "-", "output file ('-' for stdout)")
	)
	flag.Parse()

	ls, err := topology.NewLeafSpine(topology.LeafSpineConfig{
		Leaves: *leaves, Spines: *spines, HostsPerLeaf: *hostsPer,
		HostLinkLatency:   sim.Microsecond,
		FabricLinkLatency: sim.Microsecond,
	})
	if err != nil {
		fatalf("topology: %v", err)
	}

	var events []workload.TraceEvent
	net, err := emunet.New(emunet.Config{
		Topo: ls.Topology,
		Seed: *seed,
		OnInject: func(p *packet.Packet, host topology.HostID, at sim.Time) {
			events = append(events, workload.TraceEvent{
				At:      sim.Duration(at),
				Src:     host,
				Dst:     topology.HostID(p.DstHost),
				SrcPort: p.SrcPort,
				DstPort: p.DstPort,
				Size:    p.Size,
				CoS:     p.CoS,
			})
		},
	})
	if err != nil {
		fatalf("network: %v", err)
	}

	app, err := workload.ByName(*wl, net)
	if err != nil {
		fatalf("%v", err)
	}
	app.Start()
	net.RunFor(sim.Duration(duration.Nanoseconds()))
	app.Stop()

	var w io.Writer = os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			fatalf("creating %s: %v", *out, err)
		}
		defer f.Close()
		w = f
	}
	if err := workload.WriteTraceCSV(w, events); err != nil {
		fatalf("writing trace: %v", err)
	}
	fmt.Fprintf(os.Stderr, "recorded %d events over %v of %s\n", len(events), *duration, *wl)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
