package main

import (
	"fmt"
	"io"
	"math"
	"slices"
	"time"

	"repro/internal/estimator"
	"repro/internal/hmpi"
	"repro/internal/jobspec"
	"repro/internal/mapper"
	"repro/internal/mpi"
	"repro/internal/service"
	"repro/internal/trace"
)

// jobspec.Execute and the apps are opaque from outside, so host time is
// attributed with a ladder: the same spec goes through nested public entry
// points, outermost first, and a rung's self time is its duration minus
// the rung beneath it.
//
//	service.Client.Submit(wait)            socket + JSON
//	Server.Submit, then Server.Result      admission, queue, bookkeeping
//	Execute + recorder, then condensation  what service.run does per job
//	Execute on the warm cache              a memo hit still instantiates
//	Execute in mpi mode                    no selection at all
//	leaves: Generate, Predict, Instantiate, estimator.New, mapper.Solve
//
// Every rung is a span named "ladder.<rung>" with the spec's index as
// op_id; one round visits all specs, and a rung's cost per op is the
// median over rounds of its mean over the specs.

// rung times fn under a span, adds the duration to the round's total and
// returns it in milliseconds.
func rung(tr *tracer, round map[string]float64, name string, opID int, fn func() error) (float64, error) {
	id := tr.begin("ladder."+name, "ladder", opID, -1)
	t0 := time.Now()
	err := fn()
	ms := float64(time.Since(t0).Nanoseconds()) / 1e6
	tr.end(id)
	round[name] += ms
	if err != nil {
		return ms, fmt.Errorf("ladder rung %s, spec %d: %w", name, opID, err)
	}
	return ms, nil
}

// perOp folds the rounds into a per-op cost per rung, in milliseconds.
func perOp(rounds []map[string]float64, specs int) map[string]float64 {
	out := make(map[string]float64)
	for name := range rounds[0] {
		var xs []float64
		for _, r := range rounds {
			xs = append(xs, r[name]/float64(specs))
		}
		out[name] = median(xs)
	}
	return out
}

// solveCalls is how many selection problems an HMPI job solves: one
// Timeof per priced argument list, then Group_create once more.
func solveCalls(calls [][]any) int { return len(calls) + 1 }

// jobLadder climbs the ladder over the 32 small specs, against a daemon
// whose cache already holds them (the svc-repeat rungs) and with no cache
// (the select-cold rungs).
func jobLadder(seed uint64, rounds, nspecs int, outDir string, tr *tracer) (map[string]float64, error) {
	specs := jobSpecs(seed)[:nspecs]
	refs, err := references(specs)
	if err != nil {
		return nil, err
	}
	d, err := startDaemon(outDir)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	cache := d.srv.Cache()
	var all []map[string]float64
	events, dropped := 0.0, int64(0)
	for r := -1; r < rounds; r++ { // round -1 primes the cache and is dropped
		round := make(map[string]float64)
		for k, sp := range specs {
			mpiSpec := sp
			mpiSpec.Mode = jobspec.ModeMPI
			model, calls, err := modelCalls(sp)
			if err != nil {
				return nil, err
			}
			cluster := sp.ClusterOrDefault()
			var info service.JobInfo
			var rec *trace.Recorder
			steps := []struct {
				name string
				fn   func() error
			}{
				{"socket", func() error {
					info, err := d.client.Submit(sp, true)
					if err != nil {
						return err
					}
					return refs[k].verifyJob(sp, info)
				}},
				{"submit", func() (err error) {
					info, err = d.srv.Submit(sp)
					return err
				}},
				{"await", func() (err error) {
					if info, err = d.srv.Result(info.ID); err != nil {
						return err
					}
					return refs[k].verifyJob(sp, info)
				}},
				{"exec_rec", func() error {
					res, err := jobspec.Execute(sp, jobspec.ExecOptions{Selection: cache, OnRuntime: func(rt *hmpi.Runtime) {
						rec = rt.EnableRecorder(sp.App, trace.Options{ShardCap: 4096})
					}})
					if err != nil {
						return err
					}
					return refs[k].verify(sp, res)
				}},
				{"condense", func() error {
					data := rec.Data()
					events += float64(len(data.Events()))
					dropped += data.Meta.Dropped
					reg := trace.NewRegistry()
					reg.FillFromData(data)
					sink = reg.Snapshot()
					return nil
				}},
				{"warm", func() error {
					res, err := jobspec.Execute(sp, jobspec.ExecOptions{Selection: cache})
					if err != nil {
						return err
					}
					return refs[k].verify(sp, res)
				}},
				{"mpi", func() error {
					_, err := jobspec.Execute(mpiSpec, jobspec.ExecOptions{})
					return err
				}},
				{"generate", func() error {
					pr, err := generate(sp)
					sink = pr
					return err
				}},
				{"predict_warm", func() (err error) {
					sinkF, err = sp.Predict(cache)
					return err
				}},
				{"cold", func() error {
					res, err := jobspec.Execute(sp, jobspec.ExecOptions{})
					if err != nil {
						return err
					}
					return refs[k].verify(sp, res)
				}},
				{"predict_cold", func() (err error) {
					sinkF, err = sp.Predict(nil)
					return err
				}},
			}
			for _, s := range steps {
				if _, err := rung(tr, round, s.name, k, s.fn); err != nil {
					return nil, err
				}
			}
			// The leaves of the cold search, once per selection problem
			// the job solves.
			for i := 0; i < solveCalls(calls); i++ {
				args := calls[min(i, len(calls)-1)]
				var sel *selection
				if _, err := rung(tr, round, "instantiate", k, func() error {
					inst, err := model.Instantiate(args...)
					sink = inst
					return err
				}); err != nil {
					return nil, err
				}
				if sel, err = newSelection(model, args, cluster); err != nil {
					return nil, err
				}
				if _, err := rung(tr, round, "estimator_new", k, func() error {
					est, err := estimator.New(sel.inst, cluster, cluster.Speeds(), mpi.OneProcessPerMachine(cluster))
					sink = est
					return err
				}); err != nil {
					return nil, err
				}
				var picked mapper.Assignment
				if _, err := rung(tr, round, "solve", k, func() (err error) {
					picked, err = mapper.Solve(sel.pr, mapper.Options{})
					return err
				}); err != nil {
					return nil, err
				}
				// The last problem is the one HMPI_Group_create solves. If the
				// leaves stopped rebuilding the problem the job solves, the
				// selections part ways and the attribution would be of
				// something else.
				if i == solveCalls(calls)-1 && !slices.Equal(picked.Ranks, refs[k].selection) {
					return nil, fmt.Errorf("ladder: spec %d (%s): the solve leaf selects %v, the job %v", k, sp.App, picked.Ranks, refs[k].selection)
				}
			}
		}
		if r >= 0 {
			all = append(all, round)
		} else {
			events = 0
		}
	}
	// A rejected job or a dropped event means the ladder did not measure
	// what it says; both are 0 at the seed commit and fail the run if not.
	st := d.srv.Stats()
	if st.Rejected > 0 || dropped > 0 {
		return nil, fmt.Errorf("ladder: %d jobs rejected, %d trace events dropped", st.Rejected, dropped)
	}
	out := perOp(all, len(specs))
	jobs := float64(rounds * len(specs))
	out["events"] = events / jobs
	out["dropped"] = float64(dropped) / jobs
	out["rejected"] = float64(st.Rejected)
	tr.count("ladder.jobs", int64(st.Done))
	return out, nil
}

// paperLadder climbs the short ladder of the paper-size jobs: generate,
// the job in mpi mode, the job in hmpi mode. It also reads off the
// paper's own quantities: Timeof's error and the HMPI speed-up.
func paperLadder(rounds int, tr *tracer, s *layerSuite) (map[string]float64, error) {
	var all []map[string]float64
	perApp := make(map[string][]float64)
	for r := 0; r < rounds; r++ {
		round := make(map[string]float64)
		for k, app := range appNames {
			hspec, mspec := paperSpec(app, jobspec.ModeHMPI), paperSpec(app, jobspec.ModeMPI)
			hspec.L = 0 // the paper's block-size search
			var hres, mres *jobspec.Result
			genMS, err := rung(tr, round, "paper.generate", k, func() error {
				pr, err := generate(mspec)
				sink = pr
				return err
			})
			if err != nil {
				return nil, err
			}
			mpiMS, err := rung(tr, round, "paper.mpi", k, func() (err error) {
				mres, err = jobspec.Execute(mspec, jobspec.ExecOptions{})
				return err
			})
			if err != nil {
				return nil, err
			}
			if _, err := rung(tr, round, "paper.hmpi", k, func() (err error) {
				hres, err = jobspec.Execute(hspec, jobspec.ExecOptions{})
				return err
			}); err != nil {
				return nil, err
			}
			perApp["apps.generate_ms."+app] = append(perApp["apps.generate_ms."+app], genMS)
			perApp["apps.run_mpi_ms."+app] = append(perApp["apps.run_mpi_ms."+app], mpiMS-genMS)
			if r == 0 {
				s.put("hmpi.timeof_err_pct."+app, "%", 100*math.Abs(hres.Predicted-float64(hres.Time))/float64(hres.Time))
				s.put("apps.sim_speedup_x."+app, "x", float64(mres.Time)/float64(hres.Time))
			}
		}
		all = append(all, round)
	}
	for name, xs := range perApp {
		s.put(name, "ms", median(xs))
	}
	return perOp(all, 1), nil
}

// attribute turns the rung costs into the per-layer metrics and the
// attribution shares. A share is a rung's self time over the workload's
// op time; by construction the shares of svc-repeat and paper-apps
// telescope to 100 %, while select-cold's leaves are timed independently
// and their sum shows how much of a cold job the ladder explains.
func attribute(s *layerSuite, job, paper map[string]float64) {
	s.put("jobspec.execute_ms.cold", "ms", job["cold"])
	s.put("jobspec.execute_ms.warm", "ms", job["warm"])
	s.put("jobspec.predict_ms.cold", "ms", job["predict_cold"])
	s.put("jobspec.predict_ms.warm", "ms", job["predict_warm"])
	s.put("service.socket_job_ms", "ms", job["socket"])
	inproc, recorded := job["submit"]+job["await"], job["exec_rec"]+job["condense"]
	s.put("service.inproc_job_ms", "ms", inproc)
	s.put("service.submit_us", "us", 1e3*job["submit"])
	s.put("trace.condense_us", "us", 1e3*job["condense"])
	s.put("trace.events_per_job", "count", job["events"])
	s.put("trace.record_overhead_pct", "%", 100*(job["exec_rec"]-job["warm"])/job["warm"])

	share := func(workload, stage string, ms, total float64) {
		s.put("attr."+workload+"."+stage+"_pct", "%", 100*ms/total)
	}
	op := job["socket"]
	share("svc-repeat", "socket", job["socket"]-inproc, op)
	share("svc-repeat", "service", inproc-recorded-job["predict_warm"], op)
	share("svc-repeat", "trace", recorded-job["warm"], op)
	share("svc-repeat", "select_warm", job["warm"]-job["mpi"]+job["predict_warm"]-job["generate"], op)
	share("svc-repeat", "run", job["mpi"]-job["generate"], op)
	share("svc-repeat", "generate", 2*job["generate"], op)

	op = job["cold"]
	share("select-cold", "generate", job["generate"], op)
	share("select-cold", "pmdl", job["instantiate"], op)
	share("select-cold", "estimator_new", job["estimator_new"], op)
	share("select-cold", "solve", job["solve"], op)
	share("select-cold", "run", job["mpi"]-job["generate"], op)

	op = paper["paper.hmpi"] + paper["paper.mpi"]
	share("paper-apps", "generate", 2*paper["paper.generate"], op)
	share("paper-apps", "select", paper["paper.hmpi"]-paper["paper.mpi"], op)
	share("paper-apps", "run", 2*(paper["paper.mpi"]-paper["paper.generate"]), op)
}

// tracedRun is the -trace 1 run: the selected workload at a tenth of its
// length, untraced and then with spans, plus the layer suite and the
// ladders. It reports every per-layer metric, whichever workload was
// selected, and leaves the spans in <out>/trace-<workload>.json.
func tracedRun(w *workload, o options, stderr io.Writer) (report, runInfo, error) {
	reps, rounds, nspecs := layerReps, ladderRounds, mixSize
	if o.smoke {
		reps, rounds, nspecs = 2, 1, 8
	}
	tr := newTracer()
	s := &layerSuite{reps: reps, seed: o.seed, out: make(map[string]metric)}
	rep := report{Metrics: s.out}
	var firstErr error
	loop := func(w *workload, tr *tracer) (*runResult, error) {
		res, err := runWorkload(w, runConfig{seed: o.seed, seconds: o.seconds / 10, trials: o.trials, outDir: o.outDir, tr: tr})
		if err != nil {
			return nil, err
		}
		rep.Attempted += res.attempted
		rep.Failed += res.failed
		if firstErr == nil {
			firstErr = res.firstErr
		}
		return res, nil
	}
	plain, err := loop(w, nil)
	if err != nil {
		return report{}, runInfo{}, err
	}
	traced, err := loop(w, tr)
	if err != nil {
		return report{}, runInfo{}, err
	}
	s.put("bench.trace_overhead_pct", "%", 100*(plain.metrics["ops_per_s"]-traced.metrics["ops_per_s"])/plain.metrics["ops_per_s"])

	// The daemon's after-run observations come from a svc-repeat window.
	svc := plain
	if w.name != "svc-repeat" {
		if svc, err = loop(workloadByName("svc-repeat"), nil); err != nil {
			return report{}, runInfo{}, err
		}
	}
	for name, m := range svc.layer {
		s.out[name] = m
	}

	if err := s.leaves(); err != nil {
		return report{}, runInfo{}, err
	}
	job, err := jobLadder(o.seed, rounds, nspecs, o.outDir, tr)
	if err != nil {
		return report{}, runInfo{}, err
	}
	paper, err := paperLadder(rounds, tr, s)
	if err != nil {
		return report{}, runInfo{}, err
	}
	attribute(s, job, paper)
	if err := tr.write(o.outDir, w.name, o.seed); err != nil {
		return report{}, runInfo{}, err
	}
	rep.Correct = rep.Failed == 0
	info := newInfo(w, o, traced)
	if firstErr != nil {
		info.Error = firstErr.Error()
	}
	fmt.Fprintf(stderr, "%s  seed %d  traced run: %d spans, %d per-layer metrics, failed %d/%d\n",
		w.name, o.seed, len(tr.spans), len(s.out), rep.Failed, rep.Attempted)
	printLayers(stderr, s.out)
	// Three observations are 0 at the seed commit and so are not JSON
	// metrics (a 0 cannot be compared by ratio); a rejection or a dropped
	// event fails the run before it gets here.
	for _, z := range []struct {
		name string
		v    float64
	}{{"estimator.timeof_allocs", s.timeofAllocs}, {"service.rejected", job["rejected"]}, {"trace.dropped_per_job", job["dropped"]}} {
		fmt.Fprintf(stderr, "  %-44s %14.6g count (not in the JSON)\n", z.name, z.v)
	}
	return rep, info, nil
}

// ladderRounds is how many times a ladder visits all of its specs; a
// round of the job ladder is already a 32-spec aggregate.
const ladderRounds = 11

// smoke runs all five workloads and one traced run at 1 % length with
// verification on: the whole harness in a few seconds.
func smoke(o options, stdout, stderr io.Writer) error {
	o.smoke, o.trials, o.seconds = true, 1, o.seconds/100
	if err := run(o, stdout, stderr); err != nil {
		return err
	}
	o.trace, o.seconds = 1, 10*o.seconds // the traced run divides by ten itself
	if o.workload == "" {
		o.workload = "svc-repeat"
	}
	return run(o, stdout, stderr)
}
