// Command speedlight runs a synchronized-network-snapshot campaign on
// an emulated leaf-spine fabric and prints each assembled global
// snapshot: its synchronization, consistency, and per-unit values.
//
// Usage:
//
//	speedlight -leaves 2 -spines 2 -hosts 3 -snapshots 10 -metric packets
//	speedlight -metric ewma -balancer flowlet -workload hadoop
//	speedlight -channel-state -workload memcache -verbose
//	speedlight -journal-out run.jsonl -audit -flight-dir dumps/
//	speedlight -snapstore-out history.jsonl -invariants-out invariants.csv
//	speedlight -trace-epochs epochs.jsonl -trace-out epochs.chrome.json
//	speedlight doctor run.jsonl
//	speedlight doctor http://127.0.0.1:9090
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"speedlight/internal/audit"
	"speedlight/internal/dataplane"
	"speedlight/internal/emunet"
	"speedlight/internal/epochtrace"
	"speedlight/internal/export"
	"speedlight/internal/invariant"
	"speedlight/internal/journal"
	"speedlight/internal/reconcile"
	"speedlight/internal/sim"
	"speedlight/internal/snapstore"
	"speedlight/internal/telemetry"
	"speedlight/internal/topology"
	"speedlight/internal/workload"

	"speedlight"
	"speedlight/internal/packet"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "doctor" {
		doctor(os.Args[2:])
		return
	}
	campaign()
}

func campaign() {
	var (
		leaves    = flag.Int("leaves", 2, "leaf switches")
		spines    = flag.Int("spines", 2, "spine switches")
		hosts     = flag.Int("hosts", 3, "hosts per leaf")
		metric    = flag.String("metric", "packets", "snapshot target: packets, bytes, ewma, queue")
		balancer  = flag.String("balancer", "ecmp", "load balancer: ecmp, flowlet")
		chanState = flag.Bool("channel-state", false, "record in-flight packets (channel state)")
		snapshots = flag.Int("snapshots", 10, "snapshots to take")
		interval  = flag.Duration("interval", 2*time.Millisecond, "virtual time between snapshots")
		wl        = flag.String("workload", "uniform", "traffic: uniform, hadoop, graphx, memcache, trace, none")
		tracePath = flag.String("trace", "", "trace CSV for -workload trace (time_us,src,dst,src_port,dst_port,size,cos)")
		seed      = flag.Int64("seed", 1, "randomness seed")
		shards    = flag.Int("shards", 0,
			"simulation shards: 0 or 1 runs the serial engine, >=2 the parallel one (same seed, byte-identical results)")
		verbose = flag.Bool("verbose", false, "print every unit value")
		csvPath = flag.String("csv", "", "write all snapshot values to this CSV file")

		metricsAddr = flag.String("metrics-addr", "",
			"serve observability endpoints (/metrics, /debug/vars, /debug/pprof, /healthz, /journal, /audit, /snapshots, /invariants, /trace, /trace/epoch, /trace/critical) on this address while the campaign runs; implies journaling")
		traceOut = flag.String("trace-out", "",
			"write the per-epoch causal traces as Chrome trace_event JSON to this file (load in Perfetto); implies journaling")
		summary = flag.Bool("summary", false, "print an end-of-run telemetry summary table")

		snapstoreOut = flag.String("snapstore-out", "",
			"retain snapshot history and write it to this file as JSON Lines (one reconstructed epoch per line)")
		snapstoreRetain = flag.Int("snapstore-retain", 1024,
			"snapshot-history retention bound in epochs")
		invariantsOut = flag.String("invariants-out", "",
			"write invariant status and violation history to this CSV file")

		journalOut = flag.String("journal-out", "",
			"write the flight-recorder journal to this file (.csv writes CSV, anything else JSON Lines)")
		auditRun = flag.Bool("audit", false,
			"replay the journal after the campaign and print the consistency audit report (exit 1 on violations)")
		flightDir = flag.String("flight-dir", "",
			"write a flight-recorder tail dump (JSONL) into this directory whenever a snapshot finalizes inconsistent or with exclusions")
		traceEpochs = flag.String("trace-epochs", "",
			"write per-epoch causal traces to this file as JSON Lines and print critical-path attribution; implies journaling")
		churnMode = flag.String("churn", "",
			"run a seeded churn scenario against the reconciliation controller during the campaign: rolling-upgrade, link-flap-storm, partition-heal, provisioning-ramp (implies journaling; classification printed at the end)")
	)
	flag.Parse()

	cfg := speedlight.Config{
		Fabric:       speedlight.Fabric{Leaves: *leaves, Spines: *spines, HostsPerLeaf: *hosts},
		ChannelState: *chanState,
		Seed:         *seed,
		Shards:       *shards,
	}
	// Any observability flag turns telemetry on; without them the run
	// pays nothing. -trace-epochs counts: its critical-path report
	// includes the sharded engine's per-pair stall attribution, which
	// needs the barrier profiler (registry + wall clock) enabled.
	if *metricsAddr != "" || *summary || *traceEpochs != "" {
		cfg.Registry = telemetry.NewRegistry()
	}
	// Any flight-recorder flag turns journaling on — the epoch traces
	// are rebuilt from the journal. The metrics server includes it too,
	// so /journal, /audit and /trace have something to serve.
	if *journalOut != "" || *auditRun || *flightDir != "" || *metricsAddr != "" || *traceOut != "" || *traceEpochs != "" || *churnMode != "" {
		cfg.Journal = journal.NewSet(0)
	}
	if *flightDir != "" {
		if err := os.MkdirAll(*flightDir, 0o755); err != nil {
			fatalf("creating %s: %v", *flightDir, err)
		}
		dumps := 0
		cfg.OnAnomaly = func(reason string, snapshotID packet.SeqID, dump []journal.Event) {
			dumps++
			path := filepath.Join(*flightDir, fmt.Sprintf("snapshot-%d-dump-%d.jsonl", snapshotID, dumps))
			if err := writeFile(path, func(w io.Writer) error { return journal.WriteJSONL(w, dump) }); err != nil {
				fmt.Fprintf(os.Stderr, "flight recorder: %v\n", err)
				return
			}
			fmt.Printf("flight recorder: %s -> %s (%d events)\n", reason, path, len(dump))
		}
	}
	switch *metric {
	case "packets":
		cfg.Metric = speedlight.PacketCount
	case "bytes":
		cfg.Metric = speedlight.ByteCount
	case "ewma":
		cfg.Metric = speedlight.EWMAInterarrival
	case "queue":
		cfg.Metric = speedlight.QueueDepth
	default:
		fatalf("unknown metric %q", *metric)
	}
	switch *balancer {
	case "ecmp":
		cfg.Balancer = speedlight.ECMP
	case "flowlet":
		cfg.Balancer = speedlight.Flowlet
	default:
		fatalf("unknown balancer %q", *balancer)
	}

	// Any snapshot-history flag — or a metrics server, whose query
	// plane serves /snapshots and /invariants — turns the store and the
	// invariant engine on.
	if *snapstoreOut != "" || *invariantsOut != "" || *metricsAddr != "" {
		cfg.Snapstore = snapstore.New(snapstore.Config{
			Retention: *snapstoreRetain,
			Registry:  cfg.Registry,
		})
		cfg.Invariants = invariant.New(invariant.Config{Registry: cfg.Registry})
	}

	net, err := speedlight.New(cfg)
	if err != nil {
		fatalf("building network: %v", err)
	}

	// Counting metrics only grow; watch each leaf's uplink group for
	// regressions, continuously.
	if cfg.Invariants != nil && (*metric == "packets" || *metric == "bytes") {
		for leaf := 0; leaf < *leaves; leaf++ {
			var ups []dataplane.UnitID
			for _, lp := range net.Uplinks(leaf) {
				ups = append(ups, dataplane.UnitID{
					Node: topology.NodeID(lp[0]), Port: lp[1], Dir: dataplane.Egress,
				})
			}
			cfg.Invariants.Register(invariant.Monotone(fmt.Sprintf("leaf%d-uplinks-monotone", leaf), ups))
		}
	}

	if *metricsAddr != "" {
		health := telemetry.NewHealth()
		mc := net.Inner().Endpoints(health, net.BlockedProfile)
		health.SetReady(true)
		srv, err := telemetry.ServeConfig(*metricsAddr, mc)
		if err != nil {
			fatalf("metrics server: %v", err)
		}
		defer srv.Close()
		fmt.Printf("observability: http://%s/metrics (Prometheus), /debug/vars (expvar), /debug/pprof, /healthz, /journal, /audit, /snapshots, /invariants, /trace (Chrome epoch trace), /trace/epoch, /trace/critical\n",
			srv.Addr())
	}

	var ctrl *reconcile.Controller
	if *churnMode != "" {
		ctrl, err = net.Reconciler()
		if err != nil {
			fatalf("building reconciler: %v", err)
		}
		scheduleChurn(ctrl, *churnMode, *leaves, *spines, *seed,
			sim.Duration((*interval).Nanoseconds()), *snapshots)
		ctrl.Start()
	}

	if app := campaignWorkload(*wl, *tracePath, net.Inner()); app != nil {
		app.Start()
		defer app.Stop()
	}
	net.Run(2 * time.Millisecond) // warm up

	fmt.Printf("speedlight: %d leaves, %d spines, %d hosts/leaf, metric=%s, balancer=%s, channel-state=%v\n",
		*leaves, *spines, *hosts, *metric, *balancer, *chanState)

	for i := 0; i < *snapshots; i++ {
		net.Run(*interval)
		snap, err := net.Snapshot()
		if err != nil {
			fatalf("snapshot %d: %v", i+1, err)
		}
		var total uint64
		for _, v := range snap.Values {
			total += v.Value
		}
		fmt.Printf("snapshot %3d: sync=%8.1fus consistent=%-5v units=%d total=%d\n",
			snap.ID, float64(snap.Sync.Nanoseconds())/1000, snap.Consistent, len(snap.Values), total)
		if *verbose {
			for _, v := range snap.Values {
				fmt.Printf("    sw%d port%d %-7s = %d (consistent=%v)\n",
					v.Switch, v.Port, v.Direction, v.Value, v.Consistent)
			}
		}
	}

	if *csvPath != "" {
		artifact(*csvPath, "", func(w io.Writer) error {
			return export.SnapshotsCSV(w, net.Inner().Snapshots())
		})
	}

	if *traceOut != "" {
		traces := net.EpochTraces()
		artifact(*traceOut, fmt.Sprintf("%d epochs", len(traces)), func(w io.Writer) error {
			return epochtrace.WriteChromeTrace(w, traces)
		})
	}

	if *summary {
		fmt.Println("\ntelemetry summary:")
		if err := cfg.Registry.WriteSummary(os.Stdout); err != nil {
			fatalf("writing summary: %v", err)
		}
	}

	if *snapstoreOut != "" {
		v := cfg.Snapstore.View()
		artifact(*snapstoreOut, fmt.Sprintf("%d epochs", v.Len()), v.WriteJSONL)
	}

	if *invariantsOut != "" {
		artifact(*invariantsOut,
			fmt.Sprintf("%d invariants, %d violations", len(cfg.Invariants.Status()), len(cfg.Invariants.Violations())),
			func(w io.Writer) error { return export.InvariantsCSV(w, cfg.Invariants) })
	}

	if *journalOut != "" {
		events := cfg.Journal.Events()
		artifact(*journalOut, fmt.Sprintf("%d events", len(events)), func(w io.Writer) error {
			if strings.HasSuffix(*journalOut, ".csv") {
				return journal.WriteCSV(w, events)
			}
			return journal.WriteJSONL(w, events)
		})
	}

	if *traceEpochs != "" {
		traces := net.EpochTraces()
		artifact(*traceEpochs, fmt.Sprintf("%d epochs", len(traces)), func(w io.Writer) error {
			return epochtrace.WriteJSONL(w, traces)
		})
		roll := epochtrace.NewRollup(traces)
		roll.Blocking = net.BlockedProfile()
		printCritical(os.Stdout, roll)
	}

	if *churnMode != "" {
		cs := net.ClassifyChurn()
		tal := reconcile.TallyOutcomes(cs)
		fmt.Printf("\nchurn scenario %s: %d reconcile op(s), %d churn event(s): %s\n",
			*churnMode, len(ctrl.Log()), len(cs), tal)
		if tal.SilentDisagreement > 0 {
			fatalf("churn produced %d silent disagreement(s) — detection defect", tal.SilentDisagreement)
		}
	}

	if *auditRun {
		rep := net.Audit()
		fmt.Println("\naudit report:")
		if err := rep.WriteText(os.Stdout); err != nil {
			fatalf("writing audit report: %v", err)
		}
		_, inconsistent, _ := rep.Counts()
		if inconsistent > 0 || rep.Disagreements > 0 {
			os.Exit(1)
		}
	}
}

// printCritical renders a critical-path rollup: where completion
// latency is spent stage by stage, and which switches carry the most
// of it. Shared by campaign -trace-epochs output and both doctor
// modes.
func printCritical(w io.Writer, r *epochtrace.Rollup) {
	if r.Epochs == 0 {
		fmt.Fprintln(w, "critical path: no epochs traced")
		return
	}
	fmt.Fprintf(w, "critical path: %d epochs (%d consistent), mean %.1fus, max %.1fus (epoch %d), mean spread %.1fus\n",
		r.Epochs, r.Consistent,
		float64(r.MeanNs)/1000, float64(r.MaxNs)/1000, r.MaxEpoch,
		float64(r.MeanSpreadNs)/1000)
	for _, st := range r.Stages {
		if st.TotalNs == 0 {
			continue
		}
		share := 100 * float64(st.TotalNs) / float64(r.TotalNs)
		fmt.Fprintf(w, "  stage %-14s %10.1fus  %5.1f%%  (max %.1fus in one epoch)\n",
			st.Stage, float64(st.TotalNs)/1000, share, float64(st.MaxNs)/1000)
	}
	for i, sw := range r.Top(3) {
		fmt.Fprintf(w, "  #%d switch %-3d %10.1fus on path across %d epochs (wavefront %.1fus, notif %.1fus, cp-queue %.1fus, cp-service %.1fus, wire %.1fus)\n",
			i+1, sw.Switch, float64(sw.TotalNs)/1000, sw.Epochs,
			float64(sw.WavefrontNs)/1000, float64(sw.NotifNs)/1000,
			float64(sw.CPQueueNs)/1000, float64(sw.CPServiceNs)/1000,
			float64(sw.WireNs)/1000)
	}
	if len(r.Blocking) > 0 {
		b := r.Blocking[0]
		fmt.Fprintf(w, "  top blocking pair: shard %d stalled %.1fms waiting on shard %d's clock (%d blocked pair(s) total)\n",
			b.Waiter, float64(b.WaitNs)/1e6, b.Holdup, len(r.Blocking))
	}
}

// doctor replays a journal dump offline (JSONL or CSV, auto-detected)
// and prints the consistency audit report. Exits 1 when the audit
// finds inconsistent snapshots or observer disagreements.
func doctor(args []string) {
	fs := flag.NewFlagSet("doctor", flag.ExitOnError)
	var (
		format    = fs.String("format", "auto", "journal format: auto, jsonl, csv")
		jsonOut   = fs.Bool("json", false, "emit the report as JSON instead of text")
		maxID     = fs.Uint64("max-id", 0, "snapshot ID space override (journal's own config event wins)")
		wrap      = fs.Bool("wraparound", true, "assume wraparound IDs when the journal has no config event")
		chanState = fs.Bool("channel-state", false, "assume channel-state mode when the journal has no config event")
	)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: speedlight doctor [flags] <journal-file | http://host:port>")
		fmt.Fprintln(os.Stderr, "reads a flight-recorder dump (JSONL or CSV; '-' for stdin) and audits it,")
		fmt.Fprintln(os.Stderr, "or queries a running campaign's /snapshots, /invariants, and /trace/critical endpoints")
		fs.PrintDefaults()
	}
	fs.Parse(args)
	if fs.NArg() != 1 {
		fs.Usage()
		os.Exit(2)
	}
	path := fs.Arg(0)
	if strings.HasPrefix(path, "http://") || strings.HasPrefix(path, "https://") {
		doctorURL(path, *jsonOut)
		return
	}

	in := os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			fatalf("opening journal: %v", err)
		}
		defer f.Close()
		in = f
	}
	events, err := readJournal(in, path, *format)
	if err != nil {
		fatalf("reading journal: %v", err)
	}

	rep := audit.Run(events, audit.Config{
		MaxID:        *maxID,
		Wraparound:   *wrap,
		ChannelState: *chanState,
	})
	if *jsonOut {
		err = rep.WriteJSON(os.Stdout)
	} else {
		err = rep.WriteText(os.Stdout)
	}
	if err != nil {
		fatalf("writing report: %v", err)
	}
	if !*jsonOut {
		if traces := epochtrace.Build(events); len(traces) > 0 {
			fmt.Println()
			printCritical(os.Stdout, epochtrace.NewRollup(traces))
		}
	}
	_, inconsistent, _ := rep.Counts()
	if inconsistent > 0 || rep.Disagreements > 0 {
		os.Exit(1)
	}
}

// doctorURL consumes a running deployment's query plane: it fetches
// /snapshots, /invariants, and /trace/critical from the observability
// address and prints a health summary with critical-path attribution.
// Endpoints answering 503 (not attached on this deployment) are
// skipped rather than fatal, so doctor works against any MuxConfig
// subset. Exits 1 when any retained epoch is inconsistent or any
// invariant has recorded violations.
func doctorURL(base string, jsonOut bool) {
	base = strings.TrimRight(base, "/")
	client := &http.Client{Timeout: 10 * time.Second}
	// fetch returns nil when the endpoint exists but is not attached
	// (503); any other non-200 is fatal.
	fetch := func(path string) []byte {
		resp, err := client.Get(base + path)
		if err != nil {
			fatalf("fetching %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			fatalf("reading %s: %v", path, err)
		}
		if resp.StatusCode == http.StatusServiceUnavailable {
			return nil
		}
		if resp.StatusCode != http.StatusOK {
			fatalf("%s: HTTP %d: %s", path, resp.StatusCode, strings.TrimSpace(string(body)))
		}
		return body
	}
	snapsRaw := fetch("/snapshots")
	invsRaw := fetch("/invariants")
	critRaw := fetch("/trace/critical")

	if jsonOut {
		jsonOrNull := func(b []byte) string {
			if b == nil {
				return "null"
			}
			return strings.TrimSpace(string(b))
		}
		fmt.Printf("{\"snapshots\":%s,\"invariants\":%s,\"critical\":%s}\n",
			jsonOrNull(snapsRaw), jsonOrNull(invsRaw), jsonOrNull(critRaw))
	}

	var snaps snapstore.ListJSON
	if snapsRaw != nil {
		if err := json.Unmarshal(snapsRaw, &snaps); err != nil {
			fatalf("parsing /snapshots: %v", err)
		}
	}
	var invs invariant.ReportJSON
	if invsRaw != nil {
		if err := json.Unmarshal(invsRaw, &invs); err != nil {
			fatalf("parsing /invariants: %v", err)
		}
	}
	var crit *epochtrace.Rollup
	if critRaw != nil {
		crit = &epochtrace.Rollup{}
		if err := json.Unmarshal(critRaw, crit); err != nil {
			fatalf("parsing /trace/critical: %v", err)
		}
	}

	inconsistent, bases, deltas := 0, 0, 0
	for _, e := range snaps.Epochs {
		if !e.Consistent {
			inconsistent++
		}
		if e.Base {
			bases++
		}
		deltas += e.Deltas
	}
	unhealthy := inconsistent > 0
	if !jsonOut {
		if snapsRaw == nil {
			fmt.Println("snapshot history: not attached")
		} else {
			fmt.Printf("snapshot history: %d epochs retained (%d bases, %d deltas), %d inconsistent\n",
				snaps.Retained, bases, deltas, inconsistent)
			if n := len(snaps.Epochs); n > 0 {
				fmt.Printf("  epochs %d..%d, latest sync %.1fus\n",
					snaps.Epochs[0].Epoch, snaps.Epochs[n-1].Epoch,
					float64(snaps.Epochs[n-1].SyncNS)/1000)
			}
		}
		if invsRaw == nil {
			fmt.Println("invariants: not attached")
		} else {
			fmt.Printf("invariants: %d registered\n", len(invs.Invariants))
		}
	}
	for _, inv := range invs.Invariants {
		if inv.Violations > 0 {
			unhealthy = true
		}
		if !jsonOut {
			verdict := "OK"
			if !inv.OK {
				verdict = "VIOLATED: " + inv.Detail
			}
			fmt.Printf("  %-32s %6d evals %6d violations  %s\n",
				inv.Name, inv.Evals, inv.Violations, verdict)
		}
	}
	if !jsonOut {
		for _, h := range invs.History {
			fmt.Printf("  violation: %s at epoch %d: %s\n", h.Invariant, h.Epoch, h.Detail)
		}
		if crit == nil {
			fmt.Println("critical path: not attached (run the campaign with journaling on)")
		} else {
			printCritical(os.Stdout, crit)
		}
	}
	if unhealthy {
		os.Exit(1)
	}
}

// readJournal parses a dump in either on-disk format. Auto-detection
// prefers the file extension and falls back to sniffing the first
// byte: a JSONL dump always starts with '{'.
func readJournal(in *os.File, path, format string) ([]journal.Event, error) {
	switch format {
	case "jsonl":
		return journal.ReadJSONL(in)
	case "csv":
		return journal.ReadCSV(in)
	case "auto":
		if strings.HasSuffix(path, ".csv") {
			return journal.ReadCSV(in)
		}
		if strings.HasSuffix(path, ".jsonl") || strings.HasSuffix(path, ".json") {
			return journal.ReadJSONL(in)
		}
		br := bufio.NewReader(in)
		first, err := br.Peek(1)
		if err != nil {
			return nil, fmt.Errorf("empty journal: %w", err)
		}
		if first[0] == '{' {
			return journal.ReadJSONL(br)
		}
		return journal.ReadCSV(br)
	default:
		return nil, fmt.Errorf("unknown format %q (want auto, jsonl, csv)", format)
	}
}

// campaignWorkload wires a traffic generator to the facade's inner
// emulation: the paper's workloads by name, plus the CLI's own "none"
// and "trace" (a recorded CSV replayed on a 2 ms loop).
func campaignWorkload(name, tracePath string, net *emunet.Network) workload.App {
	switch name {
	case "none":
		return nil
	case "trace":
		if tracePath == "" {
			fatalf("-workload trace requires -trace <file>")
		}
		f, err := os.Open(tracePath)
		if err != nil {
			fatalf("opening trace: %v", err)
		}
		events, err := workload.LoadTraceCSV(f)
		f.Close()
		if err != nil {
			fatalf("parsing trace: %v", err)
		}
		return &workload.Replay{Net: net, Events: events, Loop: 2 * sim.Millisecond}
	}
	app, err := workload.ByName(name, net)
	if err != nil {
		fatalf("%v", err)
	}
	return app
}

// writeFile creates path, hands the file to write and closes it.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("creating %s: %w", path, err)
	}
	if err := write(f); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("closing %s: %w", path, err)
	}
	return nil
}

// artifact writes one of the campaign's output files and reports it,
// with detail (when there is any) in parentheses; a failure is fatal.
func artifact(path, detail string, write func(io.Writer) error) {
	if err := writeFile(path, write); err != nil {
		fatalf("%v", err)
	}
	if detail != "" {
		detail = " (" + detail + ")"
	}
	fmt.Printf("wrote %s%s\n", path, detail)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}

// scheduleChurn installs the seeded churn scenario named by mode on the
// reconciliation controller. Leaf switches occupy node IDs 0..leaves-1
// and spines leaves..leaves+spines-1, the order the topology builder
// assigns them.
func scheduleChurn(ctrl *reconcile.Controller, mode string, leaves, spines int, seed int64, interval sim.Duration, snapshots int) {
	leafIDs := make([]topology.NodeID, leaves)
	for i := range leafIDs {
		leafIDs[i] = topology.NodeID(i)
	}
	spineIDs := make([]topology.NodeID, spines)
	for i := range spineIDs {
		spineIDs[i] = topology.NodeID(leaves + i)
	}
	// Start past the warm-up so the first snapshot sees a full fabric,
	// and pace the scenario in snapshot intervals so it spans several
	// epochs regardless of the campaign length.
	start := 2 * interval
	var sc *reconcile.Scenario
	switch mode {
	case "rolling-upgrade":
		sc = reconcile.RollingUpgrade(spineIDs, start, interval, 2*interval)
	case "link-flap-storm":
		r := rand.New(rand.NewSource(seed))
		flaps := 2*spines + 2
		sc = reconcile.LinkFlapStorm(ctrl.Links(), r, start, flaps, interval/2, interval/2)
	case "partition-heal":
		var cut []reconcile.Link
		for _, l := range ctrl.Links() {
			if l.A.Node == leafIDs[0] || l.B.Node == leafIDs[0] {
				cut = append(cut, l)
			}
		}
		sc = reconcile.PartitionAndHeal(cut, start, sim.Duration(snapshots/2)*interval)
	case "provisioning-ramp":
		ramp := []topology.NodeID{leafIDs[len(leafIDs)-1], spineIDs[len(spineIDs)-1]}
		sc = reconcile.ProvisioningRamp(ramp, start, 2*interval)
	default:
		fatalf("unknown churn scenario %q (want rolling-upgrade, link-flap-storm, partition-heal, provisioning-ramp)", mode)
	}
	sc.Schedule(ctrl)
}
