package pmdl

import (
	"os"
	"path/filepath"
	"testing"
)

// Model text and instantiation arguments are user input (pmc, the embedding
// program): whatever they hold, the answer is a value or an
// error, never a panic. Both fuzzers start from every .mpc in the tree.

func addModelSeeds(f *testing.F, add func(src string)) {
	f.Helper()
	for _, pat := range []string{"../../models/*.mpc", "testdata/lint/*.mpc"} {
		files, err := filepath.Glob(pat)
		if err != nil || len(files) == 0 {
			f.Fatalf("no seed models under %s (%v)", pat, err)
		}
		for _, name := range files {
			src, err := os.ReadFile(name)
			if err != nil {
				f.Fatal(err)
			}
			add(string(src))
		}
	}
}

func FuzzParseModel(f *testing.F) {
	addModelSeeds(f, func(src string) { f.Add(src) })
	f.Fuzz(func(t *testing.T, src string) {
		m, err := ParseModel(src)
		if err != nil {
			return
		}
		// Every lint, the communication-graph pass included: it
		// instantiates and unrolls whatever parsed.
		Lint(m)
		// What the printer emits is the model again.
		if _, err := ParseModel(Format(m.File)); err != nil {
			t.Fatalf("formatted model does not compile: %v\n%s", err, Format(m.File))
		}
	})
}

// FuzzInstantiate binds every scalar parameter to scalar (folded into
// [-8, 8]: the work of an instance grows with a power of it) and fills every
// array with fill (extents capped at 16), then runs the scheme through both
// sinks. They share one walk, so a scheme that unrolls also builds its task
// graph, with one task per activity plus the joins.
func FuzzInstantiate(f *testing.F) {
	addModelSeeds(f, func(src string) { f.Add(src, 2, 1) })
	f.Fuzz(func(t *testing.T, src string, scalar, fill int) {
		m, err := ParseModel(src)
		if err != nil {
			return
		}
		inst, err := m.instantiate(func(i int, dims []int) (any, error) {
			if len(dims) == 0 {
				return scalar % 9, nil
			}
			return filledSlice(m.File.Algorithm.Params[i], dims, fill)
		}, 16)
		if err != nil {
			return
		}
		tr, err := inst.unrollScheme()
		if err != nil {
			return
		}
		dag, err := inst.BuildDAG()
		if err != nil {
			t.Fatalf("scheme unrolls but BuildDAG fails: %v", err)
		}
		if ops := len(tr.Ops(nil)); dag.Size() < ops {
			t.Fatalf("%d activities but %d tasks", ops, dag.Size())
		}
	})
}
