// Command bench is the repository's one reproducible benchmark: five
// closed-loop workloads, seven end-to-end metrics on each, and a traced
// run that attributes host time to layers. README.md explains what each
// number is for; BENCHMARK.json at the repository root is the contract the
// numbers are judged by.
//
//	go run ./bench                               # all workloads, end to end
//	go run ./bench -workload select-cold -seed 7 # one workload
//	go run ./bench -workload svc-repeat -trace 1 # per-layer metrics
//	go run ./bench -selfcheck -runs 5            # does it repeat?
//
// Machine-readable JSON goes to stdout (the last line is the result), the
// human table to stderr.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"
)

// processStart is when this process began: the first workload's setup_s
// counts from here.
var processStart = time.Now()

// runInfo is the context line printed before a result: what was run.
type runInfo struct {
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	Ops        int     `json:"ops"`
	Clients    int     `json:"clients"`
	WindowS    float64 `json:"window_s"`
	BeyondP90  int     `json:"samples_beyond_p90"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Error      string  `json:"error,omitempty"`
}

// report is the result line: exactly these four keys.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	trials   int
	outDir   string
	smoke    bool
	// start is when set-up of the first workload is taken to have begun;
	// main passes the process start, tests leave it zero (now).
	start time.Time
	// afterSetup is a test hook, see runConfig.
	afterSetup func(*env)
}

func main() {
	o := options{trials: trials, start: processStart}
	var selfcheck bool
	var runs int
	flag.StringVar(&o.workload, "workload", "", "workload to run (default: all five)")
	flag.Uint64Var(&o.seed, "seed", 1, "seed of the splitmix64 generator that draws every input")
	flag.Float64Var(&o.seconds, "seconds", 20, "length of the timed window at the seed commit's speed")
	flag.IntVar(&o.trace, "trace", 0, "1: traced run printing the per-layer metrics instead of the end-to-end ones")
	flag.StringVar(&o.outDir, "out", "bench/out", "directory for trace files and the daemon socket")
	flag.BoolVar(&o.smoke, "smoke", false, "all five workloads and the traced run at 1 % length, verification on")
	flag.BoolVar(&selfcheck, "selfcheck", false, "run two interleaved sets of -runs runs and judge them against the bounds")
	flag.IntVar(&runs, "runs", 5, "runs per set for -selfcheck")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	var err error
	switch {
	case selfcheck:
		err = selfCheck(o, runs, os.Stdout, os.Stderr)
	case o.smoke:
		err = smoke(o, os.Stdout, os.Stderr)
	default:
		err = run(o, os.Stdout, os.Stderr)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// selected resolves -workload to the workloads to run.
func selected(name string) ([]*workload, error) {
	if name == "" {
		return workloads, nil
	}
	if w := workloadByName(name); w != nil {
		return []*workload{w}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// run measures the selected workloads and prints, per workload, a context
// line and a result line. It returns an error when any op failed.
func run(o options, stdout, stderr io.Writer) error {
	ws, err := selected(o.workload)
	if err != nil {
		return err
	}
	var failed error
	for _, w := range ws {
		var rep report
		var info runInfo
		if o.trace != 0 {
			rep, info, err = tracedRun(w, o, stderr)
		} else {
			rep, info, err = timedRun(w, o, stderr)
		}
		if err != nil {
			return err
		}
		if err := emit(stdout, info, rep); err != nil {
			return err
		}
		o.start = time.Time{} // later workloads count from their own beginning
		if !rep.Correct && failed == nil {
			failed = fmt.Errorf("%s: %d of %d ops failed: %s", w.name, rep.Failed, rep.Attempted, info.Error)
		}
	}
	return failed
}

func emit(stdout io.Writer, info runInfo, rep report) error {
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(info); err != nil {
		return err
	}
	return enc.Encode(rep)
}

func newInfo(w *workload, o options, res *runResult) runInfo {
	info := runInfo{
		Workload: w.name, Seed: o.seed, Seconds: o.seconds, Trace: o.trace != 0,
		Ops: res.ops, Clients: res.clients, WindowS: res.windowS, BeyondP90: res.beyondP90,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	if res.firstErr != nil {
		info.Error = res.firstErr.Error()
	}
	return info
}

// timedRun is the untraced run: the seven end-to-end metrics.
func timedRun(w *workload, o options, stderr io.Writer) (report, runInfo, error) {
	res, err := runWorkload(w, runConfig{seed: o.seed, seconds: o.seconds, trials: o.trials, outDir: o.outDir, start: o.start, afterSetup: o.afterSetup})
	if err != nil {
		return report{}, runInfo{}, err
	}
	rep := report{Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed, Metrics: make(map[string]metric)}
	fmt.Fprintf(stderr, "%s  seed %d  %d ops (%d clients)  window %.1f s  %d samples beyond p90  failed %d/%d\n",
		w.name, o.seed, res.ops, res.clients, res.windowS, res.beyondP90, res.failed, res.attempted)
	for _, d := range endToEnd {
		rep.Metrics[d.name] = metric{res.metrics[d.name], d.unit}
		fmt.Fprintf(stderr, "  %-18s %14.6g %s\n", d.name, res.metrics[d.name], d.unit)
	}
	return rep, newInfo(w, o, res), nil
}

// printLayers writes the per-layer table in name order.
func printLayers(stderr io.Writer, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for name := range ms {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(stderr, "  %-44s %14.6g %s\n", name, ms[name].Value, ms[name].Unit)
	}
}
