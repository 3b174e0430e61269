package main

import (
	"io"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/jobspec"
)

func TestCandidateBlockSizes(t *testing.T) {
	cases := []struct {
		m, n int
		want []int
	}{
		{3, 24, []int{3, 6, 12, 24}},
		{3, 20, []int{3, 6, 12, 20}},
		{2, 2, []int{2}},
		{3, 3, []int{3}},
	}
	for _, tc := range cases {
		got := jobspec.CandidateBlockSizes(tc.m, tc.n)
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("CandidateBlockSizes(%d,%d) = %v, want %v", tc.m, tc.n, got, tc.want)
		}
		// Every candidate is feasible: m <= l <= n.
		for _, l := range got {
			if l < tc.m || l > tc.n {
				t.Errorf("candidate %d outside [%d,%d]", l, tc.m, tc.n)
			}
		}
	}
}

// TestTraceAlonePrintsTimeline: -trace without -tracefile still records
// the run and prints the text timeline, one row per rank.
func TestTraceAlonePrintsTimeline(t *testing.T) {
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string)
	go func() {
		out, _ := io.ReadAll(r)
		done <- string(out)
	}()
	runErr := run([]string{"-app", "em3d", "-mode", "hmpi", "-nodes", "40000", "-iters", "2", "-trace", "-trace-width", "40"})
	os.Stdout = old
	w.Close()
	out := <-done
	if runErr != nil {
		t.Fatal(runErr)
	}
	for _, want := range []string{
		"em3d hmpi: time ",
		"--- em3d hmpi timeline ---",
		"(c=compute s=send r=recv/wait .=idle)",
		"rank  0 |", "rank  8 |",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "trace: wrote") {
		t.Errorf("-trace alone wrote a file:\n%s", out)
	}
}
