package estimator_test

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/estimator"
	"repro/internal/goldencases"
	"repro/internal/hnoc"
	"repro/internal/pmdl"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/timeof.golden")

// TestTimeofGolden pins the replay itself at fixed candidates: for every
// instance pmdl's instances.golden pins, the Timeof bits on Paper9 for the
// identity candidate, for the reversed one, and for the identity with the
// NIC unserialised. World process r runs on machine r mod 9 at its nominal
// speed, so instances wider than the network share machines.
func TestTimeofGolden(t *testing.T) {
	cases, err := goldencases.Cases("../../models", "../pmdl/testdata/lint")
	if err != nil {
		t.Fatal(err)
	}
	paper9 := hnoc.Paper9()
	var b strings.Builder
	for _, c := range cases {
		fmt.Fprintf(&b, "== %s\n", c.Name)
		var inst *pmdl.Instance
		if c.Args == nil {
			inst, err = c.Model.AutoInstantiate()
		} else {
			inst, err = c.Model.Instantiate(c.Args...)
		}
		if err != nil {
			fmt.Fprintf(&b, "instantiate: %v\n", err)
			continue
		}
		n := inst.NumProcs
		speeds, placement := make([]float64, n), make([]int, n)
		identity, reversed := make([]int, n), make([]int, n)
		for r := range n {
			placement[r] = r % paper9.Size()
			speeds[r] = paper9.Machines[placement[r]].Speed
			identity[r], reversed[r] = r, n-1-r
		}
		e, err := estimator.New(inst, paper9, speeds, placement)
		if err != nil {
			fmt.Fprintf(&b, "estimator: %v\n", err)
			continue
		}
		fmt.Fprintf(&b, "identity %x reversed %x nonic %x\n", math.Float64bits(e.Timeof(identity)),
			math.Float64bits(e.Timeof(reversed)), math.Float64bits(e.TimeofWith(identity, false)))
	}
	path := filepath.Join("testdata", "timeof.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal([]byte(b.String()), want) {
		gl, wl := strings.Split(b.String(), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("%s line %d:\n got %s\nwant %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("%s: got %d lines, want %d", path, len(gl), len(wl))
	}
}
