// Command hmpirun executes one of the demonstration applications on a
// simulated heterogeneous network, under HMPI group selection or the
// plain-MPI baseline, and prints the simulated execution time and the
// selected group.
//
// Usage:
//
//	hmpirun -app em3d -nodes 400000 -iters 10
//	hmpirun -app em3d -mode mpi
//	hmpirun -app matmul -n 90 -r 9 -l 9
//	hmpirun -app matmul -mode both -cluster mynet.json
//	hmpirun -app em3d -chaos "2@0.5;4@1.2"
//	hmpirun -app matmul -m 2 -chaos "rand:k=2,seed=42,tmax=1.0"
//	hmpirun -app em3d -chaos "link:2-5@0.3+0.4:drop=0.2" -degrade
//	hmpirun -app em3d -chaos "part:{0,1,2}|{3..8}@0.5+0.2"
//
// The job flags (application, workload dimensions, cluster, chaos) are
// defined in internal/jobspec and shared verbatim with the hmpid service,
// so a flag line that works here also describes a submittable job there.
// The cluster defaults to the paper's nine-workstation network; -cluster
// loads a JSON configuration (see hnoc.Cluster). -chaos injects faults
// from a deterministic schedule and runs the application under the
// self-healing harness (see the chaos and hmpi packages). The grammar,
// ';'-separated (t in seconds of virtual time, probabilities in [0,1]):
//
//	R@T                            kill rank R at time T
//	rand:k=K,seed=S,tmax=T         K random kills drawn from seed S
//	link:A-B@T[+D]:p=v[,p=v...]    fault the A-B link from T (for D, or
//	                               forever): drop=, dup=, delay=, jitter=
//	randlink:k=K,seed=S,...        K random link faults from a template
//	part:{..}|{..}@T+D             partition the two rank sets for D
//
// Link faults are injected at the frame layer with retransmission armed
// (seeded by -chaos-seed, bit-for-bit reproducible); -degrade
// additionally lets the runtime fold chronically lossy links into the
// cost model and reselect the group around them.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"repro/internal/chaos"
	"repro/internal/hmpi"
	"repro/internal/jobspec"
	trc "repro/internal/trace"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "hmpirun: %v\n", err)
		os.Exit(1)
	}
}

// run executes the command line args (without the program name),
// printing to standard output.
func run(args []string) error {
	fs := flag.NewFlagSet("hmpirun", flag.ExitOnError)
	jf := jobspec.RegisterFlags(fs, jobspec.ModeBoth)
	trace := fs.Bool("trace", false, "print a per-process activity timeline after each run")
	ganttWidth := fs.Int("trace-width", 100, "timeline width in columns")
	traceFile := fs.String("tracefile", "", "record a structured event trace and write it to this file (binary; analyse with hmpitrace)")
	metricsFile := fs.String("metrics", "", "write a metrics-registry snapshot of the recorded run to this JSON file")
	if err := fs.Parse(args); err != nil {
		return err
	}

	spec, err := jf.Spec()
	if err != nil {
		return err
	}
	modes := []string{spec.Mode}
	if jf.Mode() == jobspec.ModeBoth && spec.Chaos == "" {
		modes = []string{jobspec.ModeHMPI, jobspec.ModeMPI}
	}
	if (*traceFile != "" || *metricsFile != "") && len(modes) > 1 {
		return errors.New("-tracefile/-metrics record a single run; pick -mode hmpi or -mode mpi")
	}

	for _, mode := range modes {
		spec.Mode = mode
		var rec *trc.Recorder
		opts := jobspec.ExecOptions{
			OnRuntime: func(rt *hmpi.Runtime) {
				if *trace || *traceFile != "" || *metricsFile != "" {
					rec = rt.EnableRecorder(spec.App, trc.Options{})
				}
			},
			OnChaosKill: func(e chaos.Event) {
				fmt.Printf("chaos: rank %d killed at t=%.6gs\n", e.Rank, float64(e.At))
			},
		}
		if spec.Chaos != "" {
			fmt.Printf("chaos: schedule %q seed %d\n", spec.Chaos, spec.ChaosSeed)
		}
		res, err := jobspec.Execute(spec, opts)
		if err != nil {
			return err
		}
		printResult(spec, res)
		if rec == nil {
			continue
		}
		d := rec.Data()
		if *trace {
			fmt.Printf("--- %s %s timeline ---\n", res.App, mode)
			if err := d.Gantt(os.Stdout, *ganttWidth); err != nil {
				return err
			}
		}
		if err := saveObs(d, *traceFile, *metricsFile); err != nil {
			return err
		}
	}
	return nil
}

// printResult prints the one-line summary of a finished run, matching the
// historical hmpirun output formats.
func printResult(spec jobspec.Spec, res *jobspec.Result) {
	switch {
	case spec.Chaos != "":
		fmt.Printf("%s hmpi+chaos: time %.6gs work %.6gs recovery %.6gs attempts %d",
			res.App, float64(res.Time), float64(res.WorkTime), float64(res.Recovery), res.Attempts)
		if res.App == "matmul" {
			fmt.Printf(" l=%d", res.L)
		}
		fmt.Printf(" selection %v\n", res.Selection)
		if len(res.Degraded) > 0 {
			fmt.Printf("chaos: degraded machine pairs %v (cost model updated, group reselected)\n", res.Degraded)
		}
	case spec.Mode == jobspec.ModeHMPI:
		fmt.Printf("%s hmpi: time %.6gs predicted %.6gs", res.App, float64(res.Time), res.Predicted)
		if res.App == "matmul" {
			fmt.Printf(" l=%d", res.L)
		}
		if res.App == "jacobi" {
			fmt.Printf(" heights %v", res.Heights)
		}
		fmt.Printf(" selection %v\n", res.Selection)
	default:
		fmt.Printf("%s mpi:  time %.6gs", res.App, float64(res.Time))
		if res.App == "jacobi" {
			fmt.Printf(" heights %v", res.Heights)
		} else {
			fmt.Printf(" selection %v", res.Selection)
		}
		fmt.Println()
	}
}

// saveObs writes the recorded structured trace and metrics snapshot after
// a traced run completes.
func saveObs(d *trc.Data, traceFile, metricsFile string) error {
	if traceFile != "" {
		if err := d.WriteFile(traceFile); err != nil {
			return err
		}
		fmt.Printf("trace: wrote %s (%d events, %d dropped)\n", traceFile, d.NumEvents(), d.Meta.Dropped)
	}
	if metricsFile != "" {
		reg := trc.NewRegistry()
		reg.FillFromData(d)
		f, err := os.Create(metricsFile)
		if err != nil {
			return err
		}
		if err := reg.Snapshot().WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("trace: wrote metrics %s\n", metricsFile)
	}
	return nil
}
