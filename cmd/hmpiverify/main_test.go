package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/hnoc"
	"repro/internal/mpi"
	"repro/internal/trace"
	"repro/internal/vclock"
)

// writeTrace serialises a snapshot to a temp HMPT file.
func writeTrace(t *testing.T, name string, d *trace.Data) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := d.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

// cleanTrace is a two-rank exchange with nothing wrong.
func cleanTrace() *trace.Data {
	return &trace.Data{
		Meta: trace.Meta{NRanks: 2},
		PerRank: [][]trace.Event{
			{{Rank: 0, Kind: trace.KindSend, Peer: 1, Tag: 9, Ctx: 1, Bytes: 8, Start: 1.0, End: 1.1}},
			{{Rank: 1, Kind: trace.KindRecv, Peer: 0, Tag: 9, Ctx: 1, Bytes: 8, Start: 1.0, End: 1.5}},
		},
	}
}

// leakTrace creates a group and never frees it.
func leakTrace() *trace.Data {
	return &trace.Data{
		Meta: trace.Meta{NRanks: 1},
		PerRank: [][]trace.Event{
			{{Rank: 0, Kind: trace.KindGroupCreate, Peer: -1, Ctx: 7, Bytes: 3, Start: vclock.Time(1), End: vclock.Time(1)}},
		},
	}
}

// unclosedTrace is the clean exchange with a trace region begun and never
// ended.
func unclosedTrace() *trace.Data {
	d := cleanTrace()
	d.Meta.Unclosed = 1
	return d
}

// divergedTrace has two ranks running the same collectives in opposite
// orders on one communicator.
func divergedTrace() *trace.Data {
	c := func(rank int, name string, at float64) trace.Event {
		return trace.Event{
			Rank: int32(rank), Kind: trace.KindColl, Peer: -1, Ctx: 7, Name: name,
			Start: vclock.Time(at), End: vclock.Time(at + 0.1),
		}
	}
	return &trace.Data{
		Meta: trace.Meta{NRanks: 2},
		PerRank: [][]trace.Event{
			{c(0, "bcast/binomial", 1), c(0, "gather/flat", 2)},
			{c(1, "gather/flat", 1), c(1, "bcast/binomial", 2)},
		},
	}
}

func TestCollectiveDivergenceDetected(t *testing.T) {
	path := writeTrace(t, "diverged.hmpt", divergedTrace())
	var out bytes.Buffer
	if code := run([]string{path}, "", false, &out); code != 1 {
		t.Fatalf("exit = %d, want 1; output:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "diverged") {
		t.Fatalf("missing divergence finding:\n%s", out.String())
	}
}

func TestCleanTracePasses(t *testing.T) {
	path := writeTrace(t, "clean.hmpt", cleanTrace())
	var out bytes.Buffer
	if code := run([]string{path}, "", false, &out); code != 0 {
		t.Fatalf("exit = %d, want 0; output:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "no violations") {
		t.Fatalf("missing success line:\n%s", out.String())
	}
}

// TestDeadlockDetected: a deadlock is detected by the run, not by
// hmpiverify. A recorded head-to-head run ends with *mpi.DeadlockError,
// its trace verifies clean, and -checks deadlock is an unknown check.
func TestDeadlockDetected(t *testing.T) {
	cl := hnoc.Homogeneous(2, 10)
	w := mpi.NewWorld(cl, mpi.OneProcessPerMachine(cl))
	rec := trace.NewRecorder(2, trace.Options{})
	w.SetRecorder(rec)
	done := make(chan error, 1)
	go func() {
		done <- w.Run(func(p *mpi.Proc) error {
			c := p.CommWorld()
			me := c.Rank()
			c.Send(1-me, 1, []byte{byte(me)})
			c.Recv(1-me, 1)
			c.Recv(1-me, 5)
			return nil
		})
	}()
	var err error
	select {
	case err = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Run still blocked after 10s")
	}
	var dl *mpi.DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("Run = %v, want a *mpi.DeadlockError", err)
	}

	path := writeTrace(t, "dead.hmpt", rec.Data())
	var out bytes.Buffer
	if code := run([]string{path}, "", false, &out); code != 0 {
		t.Fatalf("exit = %d, want 0; output:\n%s", code, out.String())
	}
	if code := run([]string{path}, "deadlock", false, &out); code != 2 {
		t.Fatalf("-checks deadlock: exit = %d, want 2", code)
	}
}

// TestGroupLeakDetected: a leaked group is detected by the run, not by
// hmpiverify (internal/verify's TestGroupLeak records one). A trace with a
// group created and never freed verifies clean, and -checks groups is an
// unknown check.
func TestGroupLeakDetected(t *testing.T) {
	path := writeTrace(t, "leak.hmpt", leakTrace())
	var out bytes.Buffer
	if code := run([]string{path}, "", false, &out); code != 0 {
		t.Fatalf("exit = %d, want 0; output:\n%s", code, out.String())
	}
	if code := run([]string{path}, "groups", false, &out); code != 2 {
		t.Fatalf("-checks groups: exit = %d, want 2", code)
	}
}

func TestChecksFilter(t *testing.T) {
	// The unclosed-region trace passes when only the collseq check runs.
	path := writeTrace(t, "unclosed.hmpt", unclosedTrace())
	var out bytes.Buffer
	if code := run([]string{path}, "collseq", false, &out); code != 0 {
		t.Fatalf("exit = %d, want 0; output:\n%s", code, out.String())
	}
	if code := run([]string{path}, "nosuch", false, &out); code != 2 {
		t.Fatalf("unknown check: exit = %d, want 2", code)
	}
}

func TestJSONOutput(t *testing.T) {
	path := writeTrace(t, "unclosed.hmpt", unclosedTrace())
	var out bytes.Buffer
	if code := run([]string{path}, "", true, &out); code != 1 {
		t.Fatalf("exit = %d, want 1; output:\n%s", code, out.String())
	}
	var finds []struct {
		File     string `json:"file"`
		Check    string `json:"check"`
		Severity string `json:"severity"`
		Message  string `json:"message"`
	}
	if err := json.Unmarshal(out.Bytes(), &finds); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, out.String())
	}
	found := false
	for _, f := range finds {
		if f.Check == "regions" && f.Severity == "violation" && f.File == path {
			found = true
		}
	}
	if !found {
		t.Fatalf("no regions violation in JSON output:\n%s", out.String())
	}

	// A clean trace must yield an empty array, not null.
	out.Reset()
	clean := writeTrace(t, "clean.hmpt", cleanTrace())
	if code := run([]string{clean}, "", true, &out); code != 0 {
		t.Fatalf("exit = %d, want 0", code)
	}
	if strings.TrimSpace(out.String()) != "[]" {
		t.Fatalf("clean trace must emit [], got:\n%s", out.String())
	}
}

func TestMissingFile(t *testing.T) {
	var out bytes.Buffer
	if code := run([]string{filepath.Join(t.TempDir(), "absent.hmpt")}, "", false, &out); code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
}
