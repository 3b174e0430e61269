package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef is an end-to-end metric as BENCHMARK.json declares it: unit,
// which direction is better, and the share of the parent's median by
// which it may get worse before a change counts as a regression. claim is
// the size of change the metric was designed to resolve (the issue's "a
// tenth"); the self-check reports a metric whose run-to-run spread exceeds
// it as unresolved, even where the wider regression bound still holds.
type metricDef struct {
	name, unit string
	higher     bool
	bound      float64
	claim      float64
}

// endToEnd lists the seven metrics in report order; a test holds
// BENCHMARK.json to this table. The four wall-clock and CPU bounds and
// setup_s's are wider than their claim because this benchmark is accepted
// only if ten runs spread by less than the bound, and on the shared
// two-core box it was built on the spread is 2-5 % in a quiet hour,
// 6-14 % in a busy one, and would reach 20 % if a two-minute level shift
// of the machine fell across half of a set (NOISE.md).
var endToEnd = []metricDef{
	{"setup_s", "s", false, 0.25, 0.10},
	{"ops_per_s", "1/s", true, 0.25, 0.08},
	{"op_p50_ms", "ms", false, 0.25, 0.08},
	{"op_p90_ms", "ms", false, 0.25, 0.10},
	{"cpu_ms_per_op", "ms", false, 0.25, 0.08},
	{"alloc_kb_per_op", "KiB", false, 0.03, 0.03},
	{"sim_s_per_op", "s", false, 0.01, 0.01},
}

// runConfig is one measured run of one workload.
type runConfig struct {
	seed    uint64
	seconds float64
	// trials is how many equal parts the timed window is cut into.
	trials int
	outDir string
	tr     *tracer
	// start is when set-up counts from; zero means when runWorkload is
	// entered.
	start time.Time
	// afterSetup, when set, sees the final env before the window opens
	// (the tests corrupt a reference through it).
	afterSetup func(*env)
}

// runResult is what one run measured.
type runResult struct {
	ops       int
	clients   int
	attempted int
	failed    int
	firstErr  error
	windowS   float64
	beyondP90 int
	metrics   map[string]float64
	layer     map[string]metric // finish() observations
}

// cpuSeconds returns the user+system CPU time this process has used.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // cannot fail for RUSAGE_SELF with a valid pointer
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// drive runs ops [lo, hi) of e across the workload's closed-loop clients
// and returns each op's wall latency (ms), simulated seconds and error.
func drive(e *env, clients, lo, hi int, tr *tracer, layer string) (lat, sim []float64, errs []error) {
	n := hi - lo
	lat, sim, errs = make([]float64, n), make([]float64, n), make([]error, n)
	var next atomic.Int64
	next.Store(int64(lo))
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= hi {
					return
				}
				id := tr.begin("op", layer, i, -1)
				t0 := time.Now()
				s, err := e.op(i, tr, id)
				lat[i-lo] = float64(time.Since(t0).Nanoseconds()) / 1e6
				tr.end(id)
				sim[i-lo], errs[i-lo] = s, err
			}
		}()
	}
	wg.Wait()
	return lat, sim, errs
}

// setUp performs one full set-up of w: inputs, references, whatever the
// ops talk to, then the warm-up ops. A failing warm-up op is an error.
func setUp(w *workload, cfg runConfig, warm int) (*env, error) {
	e, err := w.setup(cfg.seed, cfg.outDir)
	if err != nil {
		return nil, err
	}
	if e.close == nil {
		e.close = func() error { return nil }
	}
	_, _, errs := drive(e, w.clients, 0, warm, nil, "")
	for _, err := range errs {
		if err != nil {
			_ = e.close()
			return nil, fmt.Errorf("warm-up op: %w", err)
		}
	}
	return e, nil
}

// runWorkload sets w up, then times ops(seconds) ops as equal
// back-to-back trials.
func runWorkload(w *workload, cfg runConfig) (*runResult, error) {
	start := cfg.start
	if start.IsZero() {
		start = time.Now()
	}
	ops := w.ops(cfg.seconds, cfg.trials)
	warm := max(1, ops/10)
	e, err := setUp(w, cfg, warm)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	defer e.close()
	if cfg.afterSetup != nil {
		cfg.afterSetup(e)
	}

	res := &runResult{ops: ops, clients: w.clients, attempted: ops, metrics: make(map[string]float64)}
	runtime.GC() // every window starts from a collected heap
	if e.begin != nil {
		e.begin()
	}
	setupS := time.Since(start).Seconds()
	per := ops / cfg.trials
	var lat, rate, cpuMS []float64
	var allocBytes uint64
	simSum := 0.0
	for t := 0; t < cfg.trials; t++ {
		a0, c0, t0 := totalAlloc(), cpuSeconds(), time.Now()
		l, s, errs := drive(e, w.clients, warm+t*per, warm+(t+1)*per, cfg.tr, w.name)
		wall := time.Since(t0).Seconds()
		c1, a1 := cpuSeconds(), totalAlloc()
		res.windowS += wall
		rate = append(rate, float64(per)/wall)
		cpuMS = append(cpuMS, (c1-c0)*1e3/float64(per))
		allocBytes += a1 - a0
		lat = append(lat, l...)
		for i, err := range errs {
			simSum += s[i] // op-index order, so the sum is the same on every run
			if err != nil {
				res.failed++
				if res.firstErr == nil {
					res.firstErr = err
				}
			}
		}
	}
	if e.finish != nil {
		// The window's own invariant is one more checked operation.
		res.attempted++
		layer, err := e.finish()
		res.layer = layer
		if err != nil {
			res.failed++
			if res.firstErr == nil {
				res.firstErr = err
			}
		}
	}
	res.beyondP90 = samplesBeyond(len(lat), 90)
	res.metrics["setup_s"] = setupS
	res.metrics["ops_per_s"] = median(rate)
	res.metrics["op_p50_ms"] = percentile(lat, 50)
	res.metrics["op_p90_ms"] = percentile(lat, 90)
	res.metrics["cpu_ms_per_op"] = median(cpuMS)
	res.metrics["alloc_kb_per_op"] = float64(allocBytes) / 1024 / float64(ops)
	res.metrics["sim_s_per_op"] = simSum / float64(ops)
	return res, nil
}
