// Command bench is the repository's benchmark: five workloads over
// the three runtimes (discrete-event emulation, goroutines and
// channels, loopback UDP), each run as repeated fixed-work or
// fixed-window repetitions whose outputs are verified, reporting
// end-to-end metrics and, from a separate traced run, per-layer
// metrics. README.md in this directory records why each workload and
// parameter was chosen.
//
//	go run ./cmd/bench -seed 1                     # every workload
//	go run ./cmd/bench -workload live_chan -trace 1
//	go run ./cmd/bench -out a.json; go run ./cmd/bench -out b.json
//	go run ./cmd/bench -compare a.json b.json
//	go run ./cmd/bench -repeat 2                   # run twice, self-compare
//
// Run with one -workload, the last line of standard output is the
// result object of the benchmark contract in BENCHMARK.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	// des marks the deterministic workloads: virtual-time metrics and
	// counts must repeat exactly, and outputs have a digest.
	des bool
	// workers is how many CPUs the run can keep busy; busy shares are
	// shares of run wall x workers.
	workers int
	shape   cardShape
	rep     func(r *run)
	// once runs after the untraced repetitions, for what a run
	// measures or checks a single time.
	once func(s *suite, r *run)
	// traceOnce runs after the traced repetitions.
	traceOnce func(r *run)
}

// suite is one pass over the selected workloads. It carries the
// serial fabric run from fabric_serial to fabric_sharded, which must
// publish the same snapshots.
type suite struct {
	opt    options
	serial *run
}

func workloads() []*workload {
	shards := shardCount()
	cpus := runtime.GOMAXPROCS(0)
	fabricShape := cardShape{channelState: true, ports: 8, units: 192}
	testbedShape := cardShape{ports: 5, units: 28}
	// The realtime runtimes run four switch goroutines, the observer
	// and the generator.
	rtWorkers := 6
	if cpus < rtWorkers {
		rtWorkers = cpus
	}
	return []*workload{
		{
			name: wFabricSerial, des: true, workers: 1, shape: fabricShape,
			rep:  func(r *run) { fabricRep(r, 0) },
			once: func(s *suite, r *run) { s.serial = r },
		},
		{
			name: wFabricSharded, des: true, workers: shards, shape: fabricShape,
			rep: func(r *run) { fabricRep(r, shards) },
			once: func(s *suite, r *run) {
				// The sharded engine must publish what the serial one
				// does. Run alone, this workload runs the serial
				// reference itself.
				if s.serial == nil {
					s.serial = newRun(r.opt, nil)
					fabricRep(s.serial, 0)
					r.attempted += s.serial.attempted
					r.failed += s.serial.failed
					r.fails = append(r.fails, s.serial.fails...)
				}
				if r.digest != s.serial.digest {
					r.failf(1, "sharded digest %s differs from serial digest %s", r.digest, s.serial.digest)
				}
				// More shards than CPUs measures the scheduler, not
				// the engine.
				if shards <= cpus {
					r.add("sim.shard_speedup", r.med("events_per_s")/s.serial.med("events_per_s"))
				}
			},
		},
		{
			name: wStorm, des: true, workers: 1, shape: cardShape{ports: 32, units: 576},
			rep:  stormRep,
			once: func(_ *suite, r *run) { r.add("virt_sustained_rate_hz", sustainedRate(r)) },
		},
		{
			name: wLive, workers: rtWorkers, shape: testbedShape,
			rep:       func(r *run) { rtRep(r, liveRuntime) },
			traceOnce: func(r *run) { csPhase(r, liveRuntime) },
		},
		{
			name: wWire, workers: rtWorkers, shape: testbedShape,
			rep:       func(r *run) { rtRep(r, wireRuntime) },
			traceOnce: func(r *run) { csPhase(r, wireRuntime) },
		},
	}
}

// result is one workload's report.
type result struct {
	Workload  string            `json:"workload"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Reps      int               `json:"repetitions"`
	Digest    string            `json:"digest,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
	Failures  []string          `json:"failures,omitempty"`
	SpanTotal []spanTotal       `json:"span_totals,omitempty"`
	Spans     []span            `json:"spans,omitempty"`
}

// runWorkload measures one workload: untraced repetitions for the
// end-to-end metrics, then, with -trace, a traced set for the
// per-layer ones. End-to-end numbers always come from the untraced
// run; the difference between the two is the tracing overhead.
func (s *suite) runWorkload(w *workload) *result {
	opt := s.opt
	budget := time.Duration(opt.seconds * float64(time.Second))
	if opt.trace {
		budget = budget * 2 / 5 // the traced set gets as much again
	}
	untr := newRun(opt, nil)
	reps := untr.repeat(budget, w.rep)
	if w.once != nil {
		w.once(s, untr)
	}
	res := &result{Workload: w.name, Reps: reps, Digest: untr.digest}

	var trc *run
	if opt.trace {
		trc = newRun(opt, newTracer())
		trc.repeat(budget, w.rep)
		if w.traceOnce != nil {
			w.traceOnce(trc)
		}
		if len(trc.pending) > 0 {
			w.shape.queueDepth = int(median(trc.pending))
		}
		layerCards(trc, w)
		if len(trc.walls) > 0 {
			busyShares(trc, w, median(trc.walls)*1e9)
		}
		if base := untr.med("ops_per_s"); base > 0 && len(trc.samples["ops_per_s"]) > 0 {
			trc.add("trace.overhead_share", 1-trc.med("ops_per_s")/base)
		}
		if w.des && trc.digest != untr.digest {
			trc.failf(1, "traced digest %s differs from untraced digest %s", trc.digest, untr.digest)
		}
	}

	res.Metrics = untr.metrics(w.des)
	if trc != nil {
		for name, m := range trc.metrics(w.des) {
			if !specByName[name].EndToEnd {
				res.Metrics[name] = m
			}
		}
		untr.attempted += trc.attempted
		untr.failed += trc.failed
		untr.fails = append(untr.fails, trc.fails...)
		res.Spans = trc.tr.spans
		res.SpanTotal = spanTotals(trc.tr.spans)
	}
	if untr.attempted == 0 {
		untr.attempted = 1
		untr.failf(1, "no operation was attempted")
	}
	res.Attempted, res.Failed, res.Failures = untr.attempted, untr.failed, untr.fails
	res.Correct = res.Failed == 0
	res.Metrics["failed_share"] = metric{
		Unit:    specByName["failed_share"].Unit,
		summary: summarize([]float64{float64(res.Failed) / float64(res.Attempted)}),
	}
	for name := range res.Metrics {
		if !specByName[name].on(w.name) {
			panic(fmt.Sprintf("bench: %s emitted on %s, where the spec table marks it absent", name, w.name))
		}
	}
	return res
}

// env records where and how a report was made.
type env struct {
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	Smoke      bool    `json:"smoke"`
	CPUs       int     `json:"cpus"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Shards     int     `json:"shards"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Transport  string  `json:"transport"`
}

type report struct {
	Env       env       `json:"env"`
	Workloads []*result `json:"workloads"`
}

// commit finds the source revision: stamped into the binary when the
// toolchain did so, else asked of git, else unknown (the driver's
// checkout is not a repository).
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	return "unknown"
}

func newEnv(opt options) env {
	return env{
		Seed: opt.seed, Seconds: opt.seconds, Trace: opt.trace, Smoke: opt.smoke,
		CPUs: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Shards: shardCount(),
		GoVersion: runtime.Version(), Commit: commit(), Transport: "loopback",
	}
}

// runSuite runs the named workloads (all when names is empty).
func runSuite(opt options, names []string) (*report, error) {
	all := workloads()
	var selected []*workload
	if len(names) == 0 {
		selected = all
	}
	for _, name := range names {
		found := false
		for _, w := range all {
			if w.name == name {
				selected = append(selected, w)
				found = true
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown workload %q", name)
		}
	}
	s := &suite{opt: opt}
	rep := &report{Env: newEnv(opt)}
	for _, w := range selected {
		rep.Workloads = append(rep.Workloads, s.runWorkload(w))
	}
	return rep, nil
}

func (rep *report) correct() bool {
	for _, r := range rep.Workloads {
		if !r.Correct {
			return false
		}
	}
	return true
}

// printText prints every metric by name with its unit: the median
// over repetitions, min and max, and the sample count.
func (rep *report) printText() {
	e := rep.Env
	fmt.Printf("env: seed=%d seconds=%g trace=%t smoke=%t cpus=%d gomaxprocs=%d shards=%d %s commit=%s transport=%s\n",
		e.Seed, e.Seconds, e.Trace, e.Smoke, e.CPUs, e.GOMAXPROCS, e.Shards, e.GoVersion, e.Commit, e.Transport)
	for _, r := range rep.Workloads {
		fmt.Printf("\n== %s: %d repetitions, attempted %d, failed %d", r.Workload, r.Reps, r.Attempted, r.Failed)
		if r.Digest != "" {
			fmt.Printf(", digest %s", r.Digest)
		}
		fmt.Println()
		for _, f := range r.Failures {
			fmt.Printf("   FAILED: %s\n", f)
		}
		for _, endToEnd := range []bool{true, false} {
			for _, sp := range specs {
				m, ok := r.Metrics[sp.Name]
				if !ok || sp.EndToEnd != endToEnd {
					continue
				}
				fmt.Printf("  %-34s %14.6g %-9s  min %-12.6g max %-12.6g n %d\n",
					sp.Name, m.Median, m.Unit, m.Min, m.Max, m.N)
			}
		}
		if len(r.SpanTotal) > 0 {
			fmt.Printf("  spans (%d recorded; the full dump is in the -out report):\n", len(r.Spans))
			for _, st := range r.SpanTotal {
				fmt.Printf("    %-26s count %-6d calls %-8d total %10.3f ms  self %10.3f ms\n",
					st.Name, st.Count, st.Calls, st.TotalMs, st.SelfMs)
			}
		}
	}
}

// resultLine is the last line of standard output when one workload
// runs: the object the benchmark contract asks for. Untraced, the
// metrics are BENCHMARK.json's end_to_end list; traced, its per_layer
// list, zero where the workload does not exercise the layer.
func resultLine(r *result, traced bool) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]value{}}
	spec := benchmarkSpec()
	if traced {
		for _, m := range spec.PerLayer {
			out.Metrics[m.Name] = value{r.Metrics[m.Name].Median, m.Unit}
		}
	} else {
		for _, m := range spec.EndToEnd {
			out.Metrics[m.Name] = value{r.Metrics[m.Name].Median, m.Unit}
		}
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err)
	}
	return string(b)
}

func writeReport(path string, rep *report) error {
	b, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func main() {
	var (
		workloadName = flag.String("workload", "", "run one workload (default: all five)")
		seed         = flag.Int64("seed", 1, "seed of the generated inputs")
		seconds      = flag.Float64("seconds", runSeconds, "host seconds one workload measures for")
		trace        = flag.Int("trace", 0, "1 adds the traced run: per-layer metrics, spans, busy shares")
		smoke        = flag.Bool("smoke", false, "tiny sizes: checks the plumbing in seconds, not the numbers")
		out          = flag.String("out", "", "write the full report (env, metrics, spans) to this JSON file")
		compare      = flag.Bool("compare", false, "compare two -out reports: bench -compare a.json b.json")
		repeat       = flag.Int("repeat", 1, "run the set this many times back to back and compare each with the one before")
		spec         = flag.Bool("spec", false, "print BENCHMARK.json as derived from the metric table")
	)
	flag.Parse()

	switch {
	case *spec:
		b, err := json.MarshalIndent(benchmarkSpec(), "", "  ")
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(b))
		return
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two report files"))
		}
		a, err := readReport(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		b, err := readReport(flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !compareReports(os.Stdout, a, b) {
			os.Exit(1)
		}
		return
	}

	opt := options{seed: *seed, seconds: *seconds, trace: *trace != 0, smoke: *smoke}
	var names []string
	if *workloadName != "" {
		names = []string{*workloadName}
	}
	ok := true
	var prev *report
	for i := 0; i < *repeat; i++ {
		rep, err := runSuite(opt, names)
		if err != nil {
			fatal(err)
		}
		rep.printText()
		ok = ok && rep.correct()
		if prev != nil {
			fmt.Printf("\n== set %d against set %d\n", i+1, i)
			ok = compareReports(os.Stdout, prev, rep) && ok
		}
		prev = rep
	}
	if *out != "" {
		if err := writeReport(*out, prev); err != nil {
			fatal(err)
		}
	}
	if len(prev.Workloads) == 1 {
		fmt.Println(resultLine(prev.Workloads[0], opt.trace))
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}
