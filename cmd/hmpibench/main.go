// Command hmpibench regenerates the figures of the paper's evaluation
// section (and this reproduction's validation/ablation tables) on the
// simulated 9-workstation heterogeneous network. Everything it prints is
// simulated time or a count; host-time measurements are `go run ./bench`.
//
// Usage:
//
//	hmpibench -fig 11a          # one figure as a text table
//	hmpibench -fig all          # everything
//	hmpibench -fig 9a -csv      # comma-separated output
//	hmpibench -list             # available figure IDs
//	hmpibench -fig mapper -cpuprofile cpu.pprof -memprofile mem.pprof
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"repro/internal/experiments"
)

// writeCSV stores one figure as CSV in dir.
func writeCSV(dir, id string, f *experiments.Figure) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	file, err := os.Create(dir + "/fig_" + id + ".csv")
	if err != nil {
		return err
	}
	defer file.Close()
	return experiments.CSV(f, file)
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the command line args (without the program name) and
// returns the exit status: 0 on success, 1 when a figure or a file fails,
// 2 for a bad command line.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hmpibench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fig := fs.String("fig", "all", "figure ID to regenerate (see -list), or 'all'")
	csv := fs.Bool("csv", false, "emit CSV instead of an aligned table")
	outDir := fs.String("o", "", "also write each figure as <dir>/fig_<id>.csv")
	list := fs.Bool("list", false, "list available figure IDs and exit")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the run to the given file")
	memProfile := fs.String("memprofile", "", "write a heap profile at exit to the given file")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "hmpibench: %v\n", err)
		return 1
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fail(err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows retained allocations
			if err := pprof.WriteHeapProfile(f); err != nil {
				fail(err)
			}
		}()
	}

	reg := experiments.Registry()
	if *list {
		fmt.Fprintln(stdout, strings.Join(experiments.IDs(), "\n"))
		return 0
	}

	ids := experiments.IDs()
	if *fig != "all" {
		if _, ok := reg[*fig]; !ok {
			fmt.Fprintf(stderr, "hmpibench: unknown figure %q (try -list)\n", *fig)
			return 2
		}
		ids = []string{*fig}
	}
	for _, id := range ids {
		f, err := reg[id]()
		if err != nil {
			return fail(fmt.Errorf("figure %s: %w", id, err))
		}
		render := experiments.Render
		if *csv {
			render = experiments.CSV
		}
		if err := render(f, stdout); err != nil {
			return fail(err)
		}
		if *outDir != "" {
			if err := writeCSV(*outDir, id, f); err != nil {
				return fail(err)
			}
		}
		fmt.Fprintln(stdout)
	}
	return 0
}
