// Command experiments regenerates the tables and figures of the Iso-Map
// paper's evaluation (Sec. 5) as text series.
//
// Usage:
//
//	experiments [-figure all] [-runs 3] [-parallel N]
//
// -parallel sets the worker-pool width of the sweep runner (0 selects
// GOMAXPROCS); the (scenario, seed) cells of each figure run as parallel
// jobs over a shared deployment cache, and the emitted tables are
// byte-identical at any -parallel value.
//
// -cpuprofile and -memprofile write pprof profiles of the run (the heap
// profile is taken after the last table), so hot paths can be located with
// `go tool pprof` without instrumenting the code.
//
// -figure takes an ID of sim.Experiments (table1, fig7 … fig16, ext-*) or
// "all", which regenerates the paper's Table 1 and figures in paper order;
// an unknown ID fails with the list of valid ones. -format is text (the
// default) or csv; any other value fails the same way.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"

	"isomap/internal/sim"
)

func main() {
	if err := run(flag.CommandLine, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// run parses args into fs, regenerates the selected tables and prints
// them to stdout.
func run(fs *flag.FlagSet, args []string, stdout io.Writer) error {
	var (
		figure   = fs.String("figure", "all", "which table/figure to regenerate")
		runs     = fs.Int("runs", 3, "random-seed repetitions to average over")
		format   = fs.String("format", "text", "output format: text or csv")
		outDir   = fs.String("out", "", "also write each table to <out>/<id>.<ext>")
		parallel = fs.Int("parallel", 0, "sweep worker-pool width (0 = GOMAXPROCS); output is identical at any width")
		cpuprof  = fs.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memprof  = fs.String("memprofile", "", "write a pprof heap profile (taken at exit) to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *format != "text" && *format != "csv" {
		return fmt.Errorf("unknown format %q (valid: text, csv)", *format)
	}
	if *cpuprof != "" {
		f, err := os.Create(*cpuprof)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprof != "" {
		defer func() {
			f, err := os.Create(*memprof)
			if err != nil {
				fmt.Fprintln(os.Stderr, "experiments: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle allocations so the heap profile shows retained memory
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "experiments: memprofile:", err)
			}
		}()
	}
	emit := func(tb *sim.Table) error {
		var body, ext string
		if *format == "csv" {
			body, ext = tb.CSV(), "csv"
		} else {
			body, ext = tb.String()+"\n", "txt"
		}
		if _, err := io.WriteString(stdout, body); err != nil {
			return err
		}
		if *outDir == "" {
			return nil
		}
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			return err
		}
		path := filepath.Join(*outDir, tb.ID+"."+ext)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			return fmt.Errorf("write %s: %w", path, err)
		}
		return nil
	}

	tables, err := selectTables(sim.NewRunner(*parallel), *figure, *runs)
	if err != nil {
		return err
	}
	for _, tb := range tables {
		if err := emit(tb); err != nil {
			return err
		}
	}
	return nil
}

// selectTables regenerates what -figure names: the paper's tables and
// figures for "all", otherwise the one experiment with that ID.
func selectTables(r *sim.Runner, figure string, runs int) ([]*sim.Table, error) {
	if figure == "all" {
		return r.AllFigures(runs)
	}
	ids := []string{"all"}
	for _, e := range sim.Experiments {
		if e.ID == figure {
			tb, err := e.Run(r, runs)
			if err != nil {
				return nil, err
			}
			return []*sim.Table{tb}, nil
		}
		ids = append(ids, e.ID)
	}
	return nil, fmt.Errorf("unknown figure %q (valid: %s)", figure, strings.Join(ids, ", "))
}
