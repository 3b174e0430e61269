package jobspec

import (
	"flag"
	"testing"
	"time"

	"repro/internal/mapper"
)

// smallSpec returns a quick em3d job for tests.
func smallSpec() Spec {
	s := Default()
	s.Nodes, s.Iters = 40_000, 2
	return s
}

func TestNormalizeValidation(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Spec)
		ok   bool
	}{
		{"default em3d", func(s *Spec) {}, true},
		{"matmul", func(s *Spec) { s.App = "matmul" }, true},
		{"jacobi", func(s *Spec) { s.App = "jacobi" }, true},
		{"no app", func(s *Spec) { s.App = "" }, false},
		{"unknown app", func(s *Spec) { s.App = "fft" }, false},
		{"both is front-end only", func(s *Spec) { s.Mode = ModeBoth }, false},
		{"unknown mode", func(s *Spec) { s.Mode = "turbo" }, false},
		{"chaos on mpi", func(s *Spec) { s.Mode = ModeMPI; s.Chaos = "2@0.5" }, false},
		{"chaos on jacobi", func(s *Spec) { s.App = "jacobi"; s.Chaos = "2@0.5" }, false},
		{"chaos matmul without l", func(s *Spec) { s.App = "matmul"; s.L = -1; s.Chaos = "2@0.5" }, false},
		{"chaos matmul with l", func(s *Spec) { s.App = "matmul"; s.Chaos = "2@0.5" }, true},
		{"degrade without chaos", func(s *Spec) { s.Degrade = true }, false},
		{"degrade with kills only", func(s *Spec) { s.Chaos = "2@0.004"; s.Degrade = true }, false},
		{"degrade with link faults", func(s *Spec) { s.Chaos = "link:1-2@0:drop=0.4"; s.Degrade = true }, true},
		{"malformed chaos", func(s *Spec) { s.Chaos = "2@" }, false},
		{"chaos rank outside the cluster", func(s *Spec) { s.Chaos = "9@0.004" }, false},
		{"negative nodes", func(s *Spec) { s.Nodes = -1 }, false},
		{"negative p", func(s *Spec) { s.P = -1 }, false},
		{"negative iters", func(s *Spec) { s.Iters = -1 }, false},
		{"negative n", func(s *Spec) { s.N = -1 }, false},
		{"negative r", func(s *Spec) { s.R = -1 }, false},
		{"negative m", func(s *Spec) { s.M = -1 }, false},
		{"negative grid", func(s *Spec) { s.Grid = -1 }, false},
		{"negative l searches", func(s *Spec) { s.App = "matmul"; s.L = -1 }, true},
	}
	for _, c := range cases {
		s := Default()
		c.mut(&s)
		err := s.Normalize()
		if c.ok && err != nil {
			t.Errorf("%s: unexpected error %v", c.name, err)
		}
		if !c.ok && err == nil {
			t.Errorf("%s: error expected", c.name)
		}
	}
}

func TestNormalizeFillsDefaults(t *testing.T) {
	s := Spec{App: "em3d"}
	if err := s.Normalize(); err != nil {
		t.Fatal(err)
	}
	d := Default()
	if s.Mode != ModeHMPI || s.Nodes != d.Nodes || s.P != d.P || s.Grid != d.Grid {
		t.Fatalf("defaults not filled: %+v", s)
	}
}

// TestFlagsRoundTrip: the shared flag set produces the spec its arguments
// describe, for both front ends' default modes.
func TestFlagsRoundTrip(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	jf := RegisterFlags(fs, ModeBoth)
	if err := fs.Parse([]string{
		"-app", "matmul", "-n", "24", "-r", "4", "-l", "8", "-m", "3",
		"-chaos", "2@0.5", "-chaos-seed", "7", "-tenant", "acme", "-mode", "hmpi",
	}); err != nil {
		t.Fatal(err)
	}
	s, err := jf.Spec()
	if err != nil {
		t.Fatal(err)
	}
	if s.App != "matmul" || s.N != 24 || s.R != 4 || s.L != 8 || s.M != 3 {
		t.Fatalf("workload flags lost: %+v", s)
	}
	if s.Chaos != "2@0.5" || s.ChaosSeed != 7 || s.Tenant != "acme" || s.Mode != ModeHMPI {
		t.Fatalf("chaos/tenant flags lost: %+v", s)
	}

	fs2 := flag.NewFlagSet("test2", flag.ContinueOnError)
	jf2 := RegisterFlags(fs2, ModeBoth)
	if err := fs2.Parse(nil); err != nil {
		t.Fatal(err)
	}
	s2, err := jf2.Spec()
	if err != nil {
		t.Fatal(err)
	}
	if jf2.Mode() != ModeBoth || s2.Mode != ModeHMPI {
		t.Fatalf("default mode handling wrong: flag %q spec %q", jf2.Mode(), s2.Mode)
	}
}

// TestExecuteDeterministic: one spec, two executions, bit-identical
// makespans — the property the daemon's identity guarantee builds on.
func TestExecuteDeterministic(t *testing.T) {
	a, err := Execute(smallSpec(), ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Execute(smallSpec(), ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Makespan != b.Makespan || a.Time != b.Time {
		t.Fatalf("executions diverged: %v/%v vs %v/%v", a.Makespan, a.Time, b.Makespan, b.Time)
	}
	if a.Makespan <= 0 || len(a.Selection) == 0 {
		t.Fatalf("degenerate result %+v", a)
	}
}

// TestExecuteSharedCacheIdentical: a warm shared cache changes nothing
// about the result and records hits.
func TestExecuteSharedCacheIdentical(t *testing.T) {
	plain, err := Execute(smallSpec(), ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cache := mapper.NewSelectionCache(0)
	for i := 0; i < 2; i++ {
		got, err := Execute(smallSpec(), ExecOptions{Selection: cache})
		if err != nil {
			t.Fatal(err)
		}
		if got.Makespan != plain.Makespan {
			t.Fatalf("run %d: cached makespan %v != plain %v", i, got.Makespan, plain.Makespan)
		}
	}
	if cache.Stats().Hits == 0 {
		t.Fatal("shared cache never hit across executions")
	}
}

// TestExecuteAllApps exercises each app+mode cheaply.
func TestExecuteAllApps(t *testing.T) {
	specs := []Spec{
		{App: "em3d", Nodes: 40_000, Iters: 2},
		{App: "em3d", Mode: ModeMPI, Nodes: 40_000, Iters: 2},
		{App: "matmul", N: 24, R: 4, M: 3, L: 8},
		{App: "matmul", N: 24, R: 4, M: 3, L: 0}, // block-size search
		{App: "jacobi", Grid: 300, P: 4, Iters: 2},
		{App: "jacobi", Mode: ModeMPI, Grid: 300, P: 4, Iters: 2},
	}
	for _, s := range specs {
		res, err := Execute(s, ExecOptions{})
		if err != nil {
			t.Fatalf("%s/%s: %v", s.App, s.Mode, err)
		}
		if res.Makespan <= 0 || res.Time <= 0 {
			t.Fatalf("%s/%s: degenerate result %+v", s.App, s.Mode, res)
		}
	}
}

// TestPredictAllApps: pricing works without a world for every app and
// responds to the shared cache.
func TestPredictAllApps(t *testing.T) {
	cache := mapper.NewSelectionCache(0)
	for _, s := range []Spec{
		{App: "em3d", Nodes: 40_000, Iters: 2},
		{App: "matmul", N: 24, R: 4, M: 3, L: 8},
		{App: "jacobi", Grid: 300, P: 4, Iters: 2},
	} {
		cold, err := s.Predict(cache)
		if err != nil {
			t.Fatalf("%s: %v", s.App, err)
		}
		if cold <= 0 {
			t.Fatalf("%s: non-positive prediction %v", s.App, cold)
		}
		warm, err := s.Predict(cache)
		if err != nil {
			t.Fatal(err)
		}
		if warm != cold {
			t.Fatalf("%s: cached prediction %v != cold %v", s.App, warm, cold)
		}
	}
	if cache.Stats().Hits == 0 {
		t.Fatal("repeated predictions never hit the cache")
	}
}

// TestPredictIsTheRunsPrediction: the admission price is in simulated
// seconds — Predict plans with the speeds an unloaded HMPI_Recon reports,
// so it equals, bit for bit, the prediction the run itself records.
func TestPredictIsTheRunsPrediction(t *testing.T) {
	for _, row := range goldenRows() {
		if row.spec.Mode == ModeMPI {
			continue
		}
		price, err := row.spec.Predict(nil)
		if err != nil {
			t.Fatalf("%s: %v", row.name, err)
		}
		res, err := Execute(row.spec, ExecOptions{})
		if err != nil {
			t.Fatalf("%s: %v", row.name, err)
		}
		if price != res.Predicted {
			t.Errorf("%s: Predict = %v, the run predicted %v", row.name, price, res.Predicted)
		}
	}
}

// TestInfeasibleSpecReturns: a spec no group of the cluster can run is an
// error from Execute, not a hang — the host's planning, Timeof or selection
// failure releases the free processes waiting for the group.
func TestInfeasibleSpecReturns(t *testing.T) {
	for _, s := range []Spec{
		{App: "em3d", P: 12},
		{App: "jacobi", P: 12, Grid: 120},
		{App: "matmul", M: 4, N: 16, R: 2, L: 4},
		{App: "matmul", M: 3, N: 18, R: 2, L: 2},
	} {
		done := make(chan error, 1)
		go func() {
			_, err := Execute(s, ExecOptions{})
			done <- err
		}()
		select {
		case err := <-done:
			if err == nil {
				t.Errorf("%+v: infeasible spec ran", s)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%+v: Execute did not return", s)
		}
	}
}
