package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strconv"
)

// The self-check answers one question before anyone trusts a delta: does
// the benchmark agree with itself? It runs two interleaved sets (A B A B
// …) of full runs of the same binary, every run a fresh process, both
// sets over the same list of seeds, and judges each workload × metric the
// way the driver does: the quartile spread of each set against the
// metric's bound, and the second set's median against the first's. The
// two runs of one seed must also print the same sim_s_per_op bit for bit
// and the same alloc_kb_per_op to within two percent.

// childRun executes one run of this binary and returns its result line.
func childRun(exe string, o options, w *workload, seed uint64) (report, error) {
	cmd := exec.Command(exe,
		"-workload", w.name, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-out", o.outDir)
	var out bytes.Buffer
	cmd.Stdout = &out
	if err := cmd.Run(); err != nil {
		return report{}, fmt.Errorf("%s seed %d: %w", w.name, seed, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	var rep report
	if err := json.Unmarshal(lines[len(lines)-1], &rep); err != nil {
		return report{}, fmt.Errorf("%s seed %d: result line: %w", w.name, seed, err)
	}
	if !rep.Correct {
		return rep, fmt.Errorf("%s seed %d: %d of %d ops failed", w.name, seed, rep.Failed, rep.Attempted)
	}
	return rep, nil
}

// worseBy returns by what share of a the value b is worse than a.
func (d metricDef) worseBy(a, b float64) float64 {
	if d.higher {
		return (a - b) / a
	}
	return (b - a) / a
}

// verdict judges one metric's two sets. FAIL is what the driver would
// refuse: the second median worse than the first by more than the bound, or
// a set that spreads by more than the bound. UNRESOLVED means the bound
// holds but a set spreads by more than the metric's claim, so on this
// machine, in this hour, one set of runs cannot show a change of the size
// the metric is meant to show; that is reported, not passed over. setup_s
// is exempt from both spread tests (the driver exempts it too).
func (d metricDef) verdict(a, b []float64) (worse, spreadA, spreadB float64, mark string) {
	worse, spreadA, spreadB = d.worseBy(median(a), median(b)), spread(a), spread(b)
	widest := max(spreadA, spreadB)
	if d.name == "setup_s" {
		widest = 0
	}
	switch {
	case worse > d.bound || widest > d.bound:
		mark = "FAIL"
	case widest > d.claim:
		mark = "UNRESOLVED"
	default:
		mark = "PASS"
	}
	return
}

// sameSeedAgrees checks the two runs of every seed against each other:
// simulated time is deterministic per seed, allocation nearly so.
func sameSeedAgrees(a, b map[string][]float64) error {
	for i := range a["sim_s_per_op"] {
		if x, y := a["sim_s_per_op"][i], b["sim_s_per_op"][i]; x != y {
			return fmt.Errorf("sim_s_per_op of seed #%d differs between its two runs: %v, %v", i, x, y)
		}
		if x, y := a["alloc_kb_per_op"][i], b["alloc_kb_per_op"][i]; math.Abs(x-y) > 0.02*x {
			return fmt.Errorf("alloc_kb_per_op of seed #%d differs by more than 2 %% between its two runs: %v, %v", i, x, y)
		}
	}
	return nil
}

func selfCheck(o options, runs int, stdout, stderr io.Writer) error {
	if runs < 2 {
		return fmt.Errorf("-selfcheck needs -runs >= 2")
	}
	ws, err := selected(o.workload)
	if err != nil {
		return err
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "# Benchmark self-check\n\n")
	fmt.Fprintf(stdout, "Two interleaved sets of %d runs each (A B A B …), every run its own process, both sets over seeds %d…%d, `-seconds %g`, nproc %d, GOMAXPROCS %d.\n",
		runs, o.seed, o.seed+uint64(runs)-1, o.seconds, runtime.NumCPU(), runtime.GOMAXPROCS(0))
	fmt.Fprintf(stdout, "`worse` is how much worse set B's median is than set A's; `spread` is (Q3 − Q1) ÷ median by Python's `statistics.quantiles(n=4)`. FAIL: `worse` or a spread is beyond the bound, which the driver would refuse. UNRESOLVED: the bound holds but a spread is beyond the claim, the size of change the metric is meant to show, so in this hour this machine cannot show it with one set of runs (`setup_s` is exempt from both spread tests). The two runs of each seed printed the same `sim_s_per_op` bit for bit.\n\n")
	fmt.Fprintf(stdout, "| workload | metric | median A | median B | worse | spread A | spread B | claim | bound | |\n|---|---|---|---|---|---|---|---|---|---|\n")
	failures := 0
	for _, w := range ws {
		sets := [2]map[string][]float64{{}, {}}
		for i := 0; i < 2*runs; i++ {
			rep, err := childRun(exe, o, w, o.seed+uint64(i/2))
			if err != nil {
				return err
			}
			for name, m := range rep.Metrics {
				sets[i%2][name] = append(sets[i%2][name], m.Value)
			}
			fmt.Fprintf(stderr, "%s run %d/%d done\n", w.name, i+1, 2*runs)
		}
		if err := sameSeedAgrees(sets[0], sets[1]); err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		for _, d := range endToEnd {
			a, b := sets[0][d.name], sets[1][d.name]
			worse, sa, sb, mark := d.verdict(a, b)
			if mark != "PASS" {
				failures++
			}
			fmt.Fprintf(stdout, "| %s | %s | %.6g | %.6g | %+.2f %% | %.2f %% | %.2f %% | %g %% | %g %% | %s |\n",
				w.name, d.name, median(a), median(b), 100*worse, 100*sa, 100*sb, 100*d.claim, 100*d.bound, mark)
		}
	}
	if failures > 0 {
		return fmt.Errorf("self-check: %d metric rows FAIL or UNRESOLVED", failures)
	}
	return nil
}
