package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"repro/internal/jobspec"
	"repro/internal/mapper"
	"repro/internal/service"
	"repro/internal/vclock"
)

// workload is one closed-loop load: a client submits its next op when the
// previous one returned.
type workload struct {
	name, why string
	// rate is the timed ops per second the seed commit sustained on the
	// two-core reference box. It is frozen: ops(seconds) derives the op
	// count from it, so the same -seconds always times the same work and
	// a faster program shows as a shorter window, not as more ops.
	rate float64
	// cycle is the length of the op mix; every trial holds whole cycles so
	// each cost class appears equally often in the percentile pool.
	cycle int
	// clients is the number of concurrent closed-loop callers.
	clients int
	// setup builds the seeded inputs and their serial references and
	// starts whatever the ops talk to.
	setup func(seed uint64, outDir string) (*env, error)
}

// trials is how many equal back-to-back trials the timed window is cut
// into; rates and CPU per op are medians over them.
const trials = 5

// ops returns the timed op count for a window of about `seconds`: a whole
// number of cycles per trial, at least one.
func (w *workload) ops(seconds float64, trials int) int {
	per := trials * w.cycle
	return per * max(1, int(math.Round(w.rate*seconds/float64(per))))
}

// env is one set-up instance of a workload.
type env struct {
	// refs are the serial references the ops are verified against.
	refs []jobRef
	// op executes timed op i, checks its output against the serial
	// reference, and returns the simulated seconds it covered.
	op func(i int, tr *tracer, parent int) (float64, error)
	// begin, when set, runs just before the timed window; finish just
	// after it, returning per-layer observations of the window and an
	// error when the window broke an invariant of the workload.
	begin  func()
	finish func() (map[string]metric, error)
	// close stops everything setup started and waits for it.
	close func() error
}

// jobRef is the serial, uncached outcome of one spec.
type jobRef struct {
	makespan  vclock.Time
	selection []int
}

// verify compares one executed job with its reference: makespan and
// selection must match bit for bit.
func (ref jobRef) verify(sp jobspec.Spec, res *jobspec.Result) error {
	if res == nil {
		return fmt.Errorf("%s/%s: no result", sp.App, sp.Mode)
	}
	if res.Makespan != ref.makespan || !slices.Equal(res.Selection, ref.selection) {
		return fmt.Errorf("%s/%s: makespan %v selection %v, reference %v %v",
			sp.App, sp.Mode, res.Makespan, res.Selection, ref.makespan, ref.selection)
	}
	return nil
}

// references executes every spec once, serially and uncached: what
// hmpirun would print for it.
func references(specs []jobspec.Spec) ([]jobRef, error) {
	refs := make([]jobRef, len(specs))
	for i, sp := range specs {
		res, err := jobspec.Execute(sp, jobspec.ExecOptions{})
		if err != nil {
			return nil, fmt.Errorf("reference run of spec %d (%s): %w", i, sp.App, err)
		}
		refs[i] = jobRef{res.Makespan, res.Selection}
	}
	return refs, nil
}

// execSpan runs one spec under a span and verifies it.
func execSpan(sp jobspec.Spec, ref jobRef, opts jobspec.ExecOptions, tr *tracer, opID, parent int) (float64, error) {
	id := tr.begin("jobspec.Execute", "jobspec", opID, parent)
	res, err := jobspec.Execute(sp, opts)
	tr.end(id)
	if err != nil {
		return 0, err
	}
	return float64(res.Makespan), ref.verify(sp, res)
}

func setupPaperApps(seed uint64, _ string) (*env, error) {
	specs := paperSpecs(seed)
	refs, err := references(specs)
	if err != nil {
		return nil, err
	}
	return &env{
		refs: refs,
		op: func(i int, tr *tracer, parent int) (float64, error) {
			sim := 0.0
			for k, sp := range specs {
				s, err := execSpan(sp, refs[k], jobspec.ExecOptions{}, tr, i, parent)
				if err != nil {
					return 0, err
				}
				sim += s
			}
			return sim, nil
		},
	}, nil
}

func setupSelectCold(seed uint64, _ string) (*env, error) {
	specs := jobSpecs(seed)
	refs, err := references(specs)
	if err != nil {
		return nil, err
	}
	return &env{
		refs: refs,
		op: func(i int, tr *tracer, parent int) (float64, error) {
			k := i % len(specs)
			return execSpan(specs[k], refs[k], jobspec.ExecOptions{}, tr, i, parent)
		},
	}, nil
}

// daemon is an in-process hmpid: a server, its unix listener and the
// goroutine serving it.
type daemon struct {
	srv    *service.Server
	client *service.Client
	ln     net.Listener
	served chan error
	socket string
}

// startDaemon serves a fresh two-worker server on a unix socket under
// outDir. The path is kept relative so it stays inside the checkout and
// under the socket-path length limit wherever the checkout lives.
func startDaemon(outDir string) (*daemon, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	socket := filepath.Join(outDir, fmt.Sprintf("hmpid-%d.sock", os.Getpid()))
	_ = os.Remove(socket) // a stale socket of a killed run; absence is the normal case
	ln, err := net.Listen("unix", socket)
	if err != nil {
		return nil, err
	}
	d := &daemon{
		srv:    service.New(service.Config{Workers: 2}),
		client: service.NewClient(socket),
		ln:     ln,
		served: make(chan error, 1),
		socket: socket,
	}
	go func() { d.served <- d.srv.Serve(ln) }()
	return d, nil
}

// stop closes the listener, which makes Serve drain the workers and
// return, and waits for that.
func (d *daemon) stop() error {
	err := d.ln.Close()
	<-d.served // Serve reports the listener close itself; not an error here
	_ = os.Remove(d.socket)
	return err
}

// verifyJob checks a finished daemon job against its reference.
func (ref jobRef) verifyJob(sp jobspec.Spec, info service.JobInfo) error {
	if info.State != service.StateDone {
		return fmt.Errorf("job %s ended %s: %s", info.ID, info.State, info.Err)
	}
	return ref.verify(sp, info.Result)
}

func setupSvcRepeat(seed uint64, outDir string) (*env, error) {
	specs := jobSpecs(seed)
	refs, err := references(specs)
	if err != nil {
		return nil, err
	}
	d, err := startDaemon(outDir)
	if err != nil {
		return nil, err
	}
	// Every spec once through the daemon, so each later search is a
	// whole-solve memo hit.
	for k, sp := range specs {
		info, err := d.client.Submit(sp, true)
		if err == nil {
			err = refs[k].verifyJob(sp, info)
		}
		if err != nil {
			_ = d.stop()
			return nil, fmt.Errorf("priming spec %d: %w", k, err)
		}
	}
	var before mapper.CacheStats
	return &env{
		refs: refs,
		op: func(i int, tr *tracer, parent int) (float64, error) {
			k := i % len(specs)
			id := tr.begin("service.Client.Submit", "service", i, parent)
			info, err := d.client.Submit(specs[k], true)
			tr.end(id)
			if err != nil {
				return 0, err
			}
			if err := refs[k].verifyJob(specs[k], info); err != nil {
				return 0, err
			}
			return float64(info.Result.Makespan), nil
		},
		begin: func() { before = d.srv.Cache().Stats() },
		finish: func() (map[string]metric, error) {
			after := d.srv.Cache().Stats()
			window := mapper.CacheStats{SolveHits: after.SolveHits - before.SolveHits, SolveMisses: after.SolveMisses - before.SolveMisses}
			out, err := d.observe(specs[0])
			if err != nil {
				return nil, err
			}
			out["mapper.solve_hit_ratio.svc-repeat"] = metric{window.SolveHitRate(), "ratio"}
			// Every search in the window is a memo hit, so the value layer
			// sees no lookups there; its ratio is the daemon's lifetime one,
			// priming included.
			out["mapper.value_hit_ratio.svc-repeat"] = metric{after.HitRate(), "ratio"}
			st := d.srv.Stats()
			if st.Rejected > 0 {
				return out, fmt.Errorf("svc-repeat: %d jobs rejected", st.Rejected)
			}
			if window.SolveHitRate() < 0.9 {
				return out, fmt.Errorf("svc-repeat: solve hit ratio %.3f in the timed window, want >= 0.9", window.SolveHitRate())
			}
			return out, nil
		},
		close: d.stop,
	}, nil
}

// observe measures what the daemon looks like once the timed jobs are
// retained: the O(jobs) Stats walk, a status round trip, the size of a
// full result, and the live heap.
func (d *daemon) observe(sp jobspec.Spec) (map[string]metric, error) {
	out := make(map[string]metric)
	last, err := d.client.Submit(sp, true)
	if err != nil {
		return nil, fmt.Errorf("observe: %w", err)
	}
	full, err := json.Marshal(last)
	if err != nil {
		return nil, fmt.Errorf("observe: %w", err)
	}
	var statsUS, rttUS []float64
	for i := 0; i < layerReps; i++ {
		t0 := time.Now()
		d.srv.Stats()
		statsUS = append(statsUS, float64(time.Since(t0).Nanoseconds())/1e3)
		t0 = time.Now()
		if _, err := d.client.Status(last.ID); err != nil {
			return nil, fmt.Errorf("observe: %w", err)
		}
		rttUS = append(rttUS, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	out["service.stats_us.after-run"] = metric{median(statsUS), "us"}
	out["service.socket_rtt_us"] = metric{median(rttUS), "us"}
	out["service.result_bytes"] = metric{float64(len(full)), "B"}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	out["service.heap_mb_after"] = metric{float64(ms.HeapAlloc) / (1 << 20), "MiB"}
	return out, nil
}

func setupMsg(tcp bool) func(uint64, string) (*env, error) {
	return func(seed uint64, _ string) (*env, error) {
		in := newMsgInputs(seed, 9)
		ref, err := in.msgOp(tcp, nil, 0, -1)
		if err != nil {
			return nil, fmt.Errorf("reference run: %w", err)
		}
		e := &env{refs: []jobRef{{makespan: ref}}}
		e.op = func(i int, tr *tracer, parent int) (float64, error) {
			got, err := in.msgOp(tcp, tr, i, parent)
			if err != nil {
				return 0, err
			}
			if got != e.refs[0].makespan {
				return 0, fmt.Errorf("simulated makespan %v, reference %v", got, e.refs[0].makespan)
			}
			return float64(got), nil
		}
		return e, nil
	}
}

// workloads lists the five loads in reporting order. The rates were
// sized on the seed commit (2 cores) and are frozen; see README.md.
var workloads = []*workload{
	{
		name: "paper-apps", rate: 7.5, cycle: 1, clients: 1, setup: setupPaperApps,
		why: "the paper's evaluation end to end (EM3D, matmul with the Timeof block-size search, Jacobi; hmpi and mpi mode): apps, message path and pmdl+estimator pricing do the work, service and TCP none",
	},
	{
		name: "select-cold", rate: 135, cycle: mixSize, clients: 1, setup: setupSelectCold,
		why: "32 small jobs with a nil selection cache, so every Timeof/Group_create search is cold: mapper, estimator, sched and pmdl do most of the work, the message path almost none",
	},
	{
		name: "svc-repeat", rate: 215, cycle: mixSize, clients: min(2, runtime.NumCPU()), setup: setupSvcRepeat,
		why: "the same 32 jobs as round trips to an in-process hmpid whose cache already holds them: admission, queue, recorder, JSON and socket dominate and the mapper search is bypassed",
	},
	{
		name: "msg-inproc", rate: 18, cycle: 1, clients: 1, setup: setupMsg(false),
		why: "a communication-only kernel (ring, ping-pong, halo, Bcast, Allreduce, Gather at 8 B to 512 KiB) on the in-process transport: mailbox, request engine, buffer pools and NIC reservation do all the work",
	},
	{
		name: "msg-tcp", rate: 11.5, cycle: 1, clients: 1, setup: setupMsg(true),
		why: "the identical kernel over the loopback TCP mesh: framing, wire-path pooling, heartbeats and connection set-up, and the same simulated time as msg-inproc",
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}
