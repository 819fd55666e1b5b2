// Command experiments regenerates the tables and figures of the
// paper's evaluation (Section 8) on the emulated substrate.
//
// Usage:
//
//	experiments -run all
//	experiments -run table1 -ports 64
//	experiments -run fig9,fig13 -seed 7
//	experiments -run all -quick      # reduced sample counts
//
// Output is printed as aligned data series and tables; every figure
// carries notes comparing the measured shape against the paper's
// reported numbers.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"speedlight/internal/experiments"
	"speedlight/internal/sim"
)

func main() {
	var (
		run    = flag.String("run", "all", "comma-separated: all,table1,fig9,fig10,fig11,fig12,fig13,ablations")
		seed   = flag.Int64("seed", 1, "randomness seed (runs are reproducible)")
		shards = flag.Int("shards", 0,
			"simulation shards: 0 or 1 runs the serial engine, >=2 the parallel one (results are identical)")
		ports  = flag.Int("ports", 64, "port count for table1")
		quick  = flag.Bool("quick", false, "reduced sample counts for a fast pass")
		csvDir = flag.String("csvdir", "", "also write each figure/table as CSV into this directory")
	)
	flag.Parse()

	want := map[string]bool{}
	for _, name := range strings.Split(*run, ",") {
		want[strings.TrimSpace(name)] = true
	}
	all := want["all"]
	ran := 0
	out := os.Stdout

	timed := func(name string, fn func()) {
		start := time.Now()
		fmt.Fprintf(out, "\n### %s ###\n", name)
		fn()
		fmt.Fprintf(out, "(%s took %v)\n", name, time.Since(start).Round(time.Millisecond))
		ran++
	}

	writeCSV := func(name string, write func(io.Writer) error) {
		if *csvDir == "" {
			return
		}
		path := filepath.Join(*csvDir, name+".csv")
		f, err := os.Create(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "csv %s: %v\n", path, err)
			return
		}
		if err := write(f); err != nil {
			fmt.Fprintf(os.Stderr, "csv %s: %v\n", path, err)
		}
		f.Close()
	}

	if all || want["table1"] {
		timed("table1", func() {
			tbl := experiments.Table1(*ports)
			tbl.Fprint(out)
			writeCSV("table1", tbl.WriteCSV)
		})
	}
	if all || want["fig9"] {
		timed("fig9", func() {
			cfg := experiments.Fig9Config{Seed: *seed, Shards: *shards}
			if *quick {
				cfg.Snapshots = 50
			}
			fig := experiments.Fig9(cfg).Figure()
			fig.Fprint(out)
			fig.FprintPlot(out, 72, 18)
			writeCSV("fig9", fig.WriteCSV)
		})
	}
	if all || want["fig10"] {
		timed("fig10", func() {
			cfg := experiments.Fig10Config{Seed: *seed, Shards: *shards}
			if *quick {
				cfg.PortCounts = []int{4, 16, 64}
				cfg.TrialDuration = 100 * sim.Millisecond
			}
			fig := experiments.Fig10(cfg).Figure()
			fig.Fprint(out)
			writeCSV("fig10", fig.WriteCSV)
		})
	}
	if all || want["fig11"] {
		timed("fig11", func() {
			cfg := experiments.Fig11Config{Seed: *seed, Shards: *shards}
			if *quick {
				cfg.Trials = 20
				cfg.CalibrationSnapshots = 60
			}
			fig := experiments.Fig11(cfg).Figure()
			fig.Fprint(out)
			fig.FprintPlot(out, 72, 14)
			writeCSV("fig11", fig.WriteCSV)
		})
	}
	if all || want["fig12"] {
		timed("fig12", func() {
			cfg := experiments.Fig12Config{Seed: *seed, Shards: *shards}
			if *quick {
				cfg.Samples = 60
			}
			for i, f := range experiments.Fig12(cfg).Figures() {
				f.Fprint(out)
				writeCSV(fmt.Sprintf("fig12-%c", 'a'+i), f.WriteCSV)
			}
		})
	}
	if all || want["ablations"] {
		timed("ablations", func() {
			cfg := experiments.AblationConfig{Seed: *seed, Shards: *shards}
			if *quick {
				cfg.Snapshots = 30
			}
			experiments.AblationInitiators(cfg).Table().Fprint(out)
			experiments.AblationClocks(cfg).Table().Fprint(out)
			experiments.AblationNotifBuffers(cfg).Table().Fprint(out)
			experiments.AblationPartialDeployment(cfg).Table().Fprint(out)
		})
	}
	if all || want["fig13"] {
		timed("fig13", func() {
			cfg := experiments.Fig13Config{Seed: *seed, Shards: *shards}
			if *quick {
				cfg.Snapshots = 60
			}
			tbl := experiments.Fig13(cfg).Table()
			tbl.Fprint(out)
			writeCSV("fig13", tbl.WriteCSV)
		})
	}

	if ran == 0 {
		fmt.Fprintf(os.Stderr, "unknown experiment selection %q\n", *run)
		flag.Usage()
		os.Exit(2)
	}
}
