package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/trace"
)

// writeTestTrace records a tiny deterministic run and stores it as a
// binary trace file, returning the path.
func writeTestTrace(t *testing.T) string {
	t.Helper()
	rec := trace.NewRecorder(2, trace.Options{})
	rec.SetMeta(trace.Meta{App: "clitest", Placement: []int{0, 1}})
	rec.Emit(0, trace.Event{Rank: 0, Kind: trace.KindCompute, Peer: -1, Start: 0, End: 1})
	rec.Emit(0, trace.Event{Rank: 0, Kind: trace.KindSend, Peer: 1, Tag: 3, Ctx: 1, Bytes: 500, Start: 1, End: 1.5})
	// The receive ends strictly after the send so the critical path must
	// cross ranks through the matched send-recv edge.
	rec.Emit(1, trace.Event{Rank: 1, Kind: trace.KindRecv, Peer: 0, Tag: 3, Ctx: 1, Bytes: 500, Start: 0.5, End: 1.7})
	rec.Predict(0, "work", 0.9, 0)
	rec.RegionBegin(0, "work", 0)
	rec.RegionEnd(0, "work", 1)
	path := filepath.Join(t.TempDir(), "run.trace")
	if err := rec.Data().WriteFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

// capture runs fn with os.Stdout redirected to a pipe and returns what it
// printed.
func capture(t *testing.T, fn func()) string {
	t.Helper()
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
	defer func() { os.Stdout = old }()
	fn()
	w.Close()
	return <-done
}

func TestCmdInfo(t *testing.T) {
	path := writeTestTrace(t)
	out := capture(t, func() { cmdInfo([]string{path}) })
	for _, want := range []string{"app:      clitest", "ranks:    2", "events:   5"} {
		if !strings.Contains(out, want) {
			t.Errorf("info output missing %q:\n%s", want, out)
		}
	}
}

func TestCmdReport(t *testing.T) {
	path := writeTestTrace(t)
	out := capture(t, func() { cmdReport([]string{"-json", path}) })
	var rep trace.Report
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("report -json output not parseable: %v\n%s", err, out)
	}
	if len(rep.Phases) != 1 || rep.Phases[0].Name != "work" || rep.Phases[0].Predicted != 0.9 {
		t.Fatalf("report = %+v", rep)
	}
}

func TestCmdExport(t *testing.T) {
	path := writeTestTrace(t)
	outFile := filepath.Join(t.TempDir(), "chrome.json")
	capture(t, func() { cmdExport([]string{"-o", outFile, path}) })
	data, err := os.ReadFile(outFile)
	if err != nil {
		t.Fatal(err)
	}
	var f struct {
		Events []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	// 1 process_name + 2 thread_name + 5 events.
	if len(f.Events) != 8 {
		t.Fatalf("exported %d entries, want 8", len(f.Events))
	}
}

func TestCmdLinksBreakdownCriticalMetrics(t *testing.T) {
	path := writeTestTrace(t)
	if out := capture(t, func() { cmdLinks([]string{path}) }); !strings.Contains(out, "total: 1 messages, 500 bytes") {
		t.Errorf("links output:\n%s", out)
	}
	if out := capture(t, func() { cmdBreakdown([]string{path}) }); !strings.Contains(out, "makespan") {
		t.Errorf("breakdown output:\n%s", out)
	}
	if out := capture(t, func() { cmdCritical([]string{path}) }); !strings.Contains(out, "critical path: 3 steps") {
		t.Errorf("critical output:\n%s", out)
	}
	out := capture(t, func() { cmdMetrics([]string{path}) })
	var snap trace.Snapshot
	if err := json.Unmarshal([]byte(out), &snap); err != nil {
		t.Fatalf("metrics output not parseable: %v\n%s", err, out)
	}
	if len(snap.Counters) == 0 {
		t.Fatal("metrics snapshot has no counters")
	}
}
