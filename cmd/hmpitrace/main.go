// Command hmpitrace analyses structured event traces recorded by the HMPI
// runtime (hmpirun -tracefile, or hmpi.Runtime.EnableRecorder /
// mpi.World.SetRecorder programmatically).
//
// Usage:
//
//	hmpitrace export  [-timeline virtual|wall] [-o out.json] run.trace
//	hmpitrace links   run.trace
//	hmpitrace breakdown [-json] run.trace
//	hmpitrace critical  [-json] run.trace
//	hmpitrace report    [-json] run.trace
//	hmpitrace metrics   run.trace
//	hmpitrace info      run.trace
//
// export writes the Chrome trace-event JSON (load it in Perfetto or
// chrome://tracing); links prints the per-link traffic matrix; breakdown
// the per-rank compute/communicate/idle budget; critical the critical
// path of the run; report the predicted-vs-observed Timeof accuracy per
// phase; metrics a counter/gauge/histogram snapshot; info the trace
// metadata.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/trace"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd, args := os.Args[1], os.Args[2:]
	switch cmd {
	case "export":
		cmdExport(args)
	case "links":
		cmdLinks(args)
	case "breakdown":
		cmdBreakdown(args)
	case "critical":
		cmdCritical(args)
	case "report":
		cmdReport(args)
	case "metrics":
		cmdMetrics(args)
	case "info":
		cmdInfo(args)
	default:
		fmt.Fprintf(os.Stderr, "hmpitrace: unknown command %q\n\n", cmd)
		usage()
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage: hmpitrace <command> [flags] <trace-file>

commands:
  export     write Chrome trace-event JSON (Perfetto / chrome://tracing)
  links      per-link byte and message matrices
  breakdown  per-rank compute / communicate / idle budget
  critical   critical path of the run
  report     predicted-vs-observed Timeof accuracy per phase
  metrics    counter/gauge/histogram snapshot of the trace
  info       trace metadata
`)
	os.Exit(2)
}

// load parses the flag set, requires exactly one positional trace file,
// and reads it.
func load(fs *flag.FlagSet, args []string) *trace.Data {
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}
	if fs.NArg() != 1 {
		fmt.Fprintf(os.Stderr, "hmpitrace: expected one trace file, got %d arguments\n", fs.NArg())
		os.Exit(2)
	}
	d, err := trace.ReadFile(fs.Arg(0))
	if err != nil {
		fatal(err)
	}
	return d
}

// output opens the -o destination, defaulting to stdout.
func output(path string) (io.WriteCloser, func()) {
	if path == "" || path == "-" {
		return os.Stdout, func() {}
	}
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	return f, func() {
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}
}

func cmdExport(args []string) {
	fs := flag.NewFlagSet("export", flag.ExitOnError)
	tl := fs.String("timeline", "virtual", "timeline for timestamps: virtual (simulated seconds) or wall (host nanoseconds)")
	out := fs.String("o", "", "output file (default stdout)")
	d := load(fs, args)
	timeline := trace.TimelineVirtual
	switch *tl {
	case "virtual":
	case "wall":
		timeline = trace.TimelineWall
	default:
		fatal(fmt.Errorf("unknown timeline %q (want virtual or wall)", *tl))
	}
	w, done := output(*out)
	if err := trace.WriteChrome(w, d, timeline); err != nil {
		fatal(err)
	}
	done()
}

func cmdLinks(args []string) {
	fs := flag.NewFlagSet("links", flag.ExitOnError)
	d := load(fs, args)
	m := trace.Links(d)
	fmt.Println("bytes sent per link (rows = senders):")
	if err := m.Render(os.Stdout); err != nil {
		fatal(err)
	}
	var msgs, bytes int64
	for i := range m.Messages {
		for j := range m.Messages[i] {
			msgs += m.Messages[i][j]
			bytes += m.Bytes[i][j]
		}
	}
	fmt.Printf("total: %d messages, %d bytes\n", msgs, bytes)
}

func cmdBreakdown(args []string) {
	fs := flag.NewFlagSet("breakdown", flag.ExitOnError)
	asJSON := fs.Bool("json", false, "emit JSON")
	d := load(fs, args)
	rows := trace.Breakdown(d)
	if *asJSON {
		emitJSON(rows)
		return
	}
	fmt.Printf("makespan %.6gs\n", float64(d.Makespan()))
	fmt.Printf("%6s %14s %14s %14s\n", "rank", "compute_s", "comm_s", "idle_s")
	for _, r := range rows {
		fmt.Printf("%6d %14.6g %14.6g %14.6g\n", r.Rank, float64(r.Compute), float64(r.Comm), float64(r.Idle))
	}
}

func cmdCritical(args []string) {
	fs := flag.NewFlagSet("critical", flag.ExitOnError)
	asJSON := fs.Bool("json", false, "emit JSON")
	d := load(fs, args)
	cp := trace.ExtractCriticalPath(d)
	if *asJSON {
		emitJSON(cp)
		return
	}
	if err := cp.Render(os.Stdout); err != nil {
		fatal(err)
	}
}

func cmdReport(args []string) {
	fs := flag.NewFlagSet("report", flag.ExitOnError)
	asJSON := fs.Bool("json", false, "emit JSON")
	d := load(fs, args)
	rep := trace.BuildReport(d)
	if *asJSON {
		emitJSON(rep)
		return
	}
	if err := rep.Render(os.Stdout); err != nil {
		fatal(err)
	}
}

func cmdMetrics(args []string) {
	fs := flag.NewFlagSet("metrics", flag.ExitOnError)
	d := load(fs, args)
	reg := trace.NewRegistry()
	reg.FillFromData(d)
	if err := reg.Snapshot().WriteJSON(os.Stdout); err != nil {
		fatal(err)
	}
}

func cmdInfo(args []string) {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	d := load(fs, args)
	fmt.Printf("app:      %s\n", orDash(d.Meta.App))
	fmt.Printf("ranks:    %d\n", d.NumRanks())
	fmt.Printf("events:   %d\n", d.NumEvents())
	fmt.Printf("makespan: %.6gs\n", float64(d.Makespan()))
	if d.Meta.Dropped > 0 {
		fmt.Printf("dropped:  %d\n", d.Meta.Dropped)
	}
	if d.Meta.Unclosed > 0 {
		fmt.Printf("unclosed regions: %d\n", d.Meta.Unclosed)
	}
	if len(d.Meta.Placement) > 0 {
		fmt.Printf("placement: %v\n", d.Meta.Placement)
	}
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

func emitJSON(v any) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "hmpitrace: %v\n", err)
	os.Exit(1)
}
