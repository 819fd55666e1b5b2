// Command experiments regenerates the tables and figures of the
// paper's evaluation (Section 8), and its use-case claims, on the
// emulated substrate.
//
// Usage:
//
//	experiments -run all
//	experiments -run table1 -ports 64
//	experiments -run fig9,fig13 -seed 7
//	experiments -run usecases        # loop detection, microbursts, provisioning
//	experiments -run all -quick      # the scale the shape tests assert
//
// Output is printed as aligned data series and tables; every figure
// carries notes comparing the measured shape against the paper's
// reported numbers.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"speedlight/internal/experiments"
)

// result is a printable table or figure.
type result interface {
	Fprint(io.Writer)
	WriteCSV(io.Writer) error
}

// part is one printed result, the CSV file it goes to under -csvdir
// ("" for none), and the height of its ASCII plot (0 for none).
type part struct {
	res   result
	csv   string
	plotH int
}

// catalog lists the experiments in the order -run all prints them.
var catalog = []struct {
	name string
	run  func(o experiments.Options, ports int) []part
}{
	{"table1", func(_ experiments.Options, ports int) []part { return []part{{experiments.Table1(ports), "table1", 0}} }},
	{"fig9", func(o experiments.Options, _ int) []part { return []part{{experiments.Fig9(o).Figure(), "fig9", 18}} }},
	{"fig10", func(o experiments.Options, _ int) []part { return []part{{experiments.Fig10(o).Figure(), "fig10", 0}} }},
	{"fig11", func(o experiments.Options, _ int) []part { return []part{{experiments.Fig11(o).Figure(), "fig11", 14}} }},
	{"fig12", func(o experiments.Options, _ int) (parts []part) {
		for i, f := range experiments.Fig12(o).Figures() {
			parts = append(parts, part{f, fmt.Sprintf("fig12-%c", 'a'+i), 0})
		}
		return parts
	}},
	{"ablations", func(o experiments.Options, _ int) []part {
		return []part{{experiments.AblationInitiators(o).Table(), "", 0}, {experiments.AblationClocks(o).Table(), "", 0},
			{experiments.AblationNotifBuffers(o).Table(), "", 0}, {experiments.AblationPartialDeployment(o).Table(), "", 0}}
	}},
	{"fig13", func(o experiments.Options, _ int) []part { return []part{{experiments.Fig13(o).Table(), "fig13", 0}} }},
	{"usecases", func(o experiments.Options, _ int) []part { return []part{{experiments.UseCases(o), "usecases", 0}} }},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command with its arguments and streams; it returns the
// exit status.
func run(args []string, out, errOut io.Writer) int {
	names := []string{"all"}
	for _, e := range catalog {
		names = append(names, e.name)
	}
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(errOut)
	var (
		sel    = fs.String("run", "all", "comma-separated: "+strings.Join(names, ","))
		seed   = fs.Int64("seed", 1, "randomness seed (runs are reproducible)")
		shards = fs.Int("shards", 0,
			"simulation shards: 0 or 1 runs the serial engine, >=2 the parallel one (results are identical)")
		ports  = fs.Int("ports", 64, "port count for table1")
		quick  = fs.Bool("quick", false, "run at the scale the shape tests assert, for a fast pass")
		csvDir = fs.String("csvdir", "", "also write each figure/table as CSV into this directory")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	want := map[string]bool{}
	for _, name := range strings.Split(*sel, ",") {
		name = strings.TrimSpace(name)
		if !slices.Contains(names, name) {
			fmt.Fprintf(errOut, "unknown experiment %q; valid names: %s\n", name, strings.Join(names, ","))
			return 2
		}
		want[name] = true
	}

	o := experiments.Options{Seed: *seed, Shards: *shards, Quick: *quick}
	for _, e := range catalog {
		if !want["all"] && !want[e.name] {
			continue
		}
		start := time.Now()
		fmt.Fprintf(out, "\n### %s ###\n", e.name)
		for _, p := range e.run(o, *ports) {
			p.res.Fprint(out)
			if p.plotH > 0 {
				p.res.(*experiments.Figure).FprintPlot(out, 72, p.plotH)
			}
			if path := filepath.Join(*csvDir, p.csv+".csv"); *csvDir != "" && p.csv != "" {
				if err := writeCSV(path, p.res); err != nil {
					fmt.Fprintf(errOut, "csv %s: %v\n", path, err)
				}
			}
		}
		fmt.Fprintf(out, "(%s took %v)\n", e.name, time.Since(start).Round(time.Millisecond))
	}
	return 0
}

// writeCSV writes res to path as CSV.
func writeCSV(path string, res result) error {
	var buf bytes.Buffer
	if err := res.WriteCSV(&buf); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o666)
}
