package main

import (
	"encoding/json"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/jobspec"
	"repro/internal/service"
)

// startDaemon serves an in-process daemon on a temp unix socket.
func startDaemon(t *testing.T, cfg service.Config) string {
	t.Helper()
	socket := filepath.Join(t.TempDir(), "hmpid.sock")
	ln, err := net.Listen("unix", socket)
	if err != nil {
		t.Fatal(err)
	}
	srv := service.New(cfg)
	done := make(chan struct{})
	go func() { srv.Serve(ln); close(done) }()
	t.Cleanup(func() {
		ln.Close()
		<-done
	})
	return socket
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

// decodeJob parses the last JSON line a client subcommand printed.
func decodeJob(t *testing.T, out string) service.JobInfo {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var info service.JobInfo
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &info); err != nil {
		t.Fatalf("output not a job JSON line: %v\n%s", err, out)
	}
	return info
}

// TestClientSubcommands drives the whole client surface against an
// in-process daemon: submit (shared hmpirun flags), status, watch,
// result, stats.
func TestClientSubcommands(t *testing.T) {
	socket := startDaemon(t, service.Config{Workers: 2})

	sub := decodeJob(t, capture(t, func() {
		cmdSubmit([]string{"-socket", socket, "-app", "em3d", "-nodes", "40000", "-iters", "2", "-tenant", "acme"})
	}))
	if sub.ID == "" || sub.Predicted <= 0 || sub.Tenant != "acme" {
		t.Fatalf("bad submit echo: %+v", sub)
	}

	watched := capture(t, func() { cmdWatch([]string{"-socket", socket, sub.ID}) })
	if !strings.Contains(watched, "queued") || !strings.Contains(watched, "done") {
		t.Fatalf("watch output missing lifecycle:\n%s", watched)
	}
	final := decodeJob(t, watched)
	if final.State != service.StateDone || final.Result == nil {
		t.Fatalf("watch final snapshot: %+v", final)
	}

	res := decodeJob(t, capture(t, func() { cmdJobOp("result", []string{"-socket", socket, sub.ID}) }))
	if res.Result == nil || res.Result.Makespan != final.Result.Makespan {
		t.Fatalf("result mismatch: %+v vs %+v", res.Result, final.Result)
	}
	if res.Trace == nil || res.Metrics == nil {
		t.Fatal("result lost trace/metrics attachments")
	}

	// Submit-and-wait resolves in one command and reuses the warm cache.
	waited := decodeJob(t, capture(t, func() {
		cmdSubmit([]string{"-socket", socket, "-wait", "-app", "em3d", "-nodes", "40000", "-iters", "2"})
	}))
	if waited.State != service.StateDone || waited.Result.Makespan != final.Result.Makespan {
		t.Fatalf("waited run diverged: %+v", waited)
	}

	statsOut := capture(t, func() { cmdStats([]string{"-socket", socket}) })
	var st service.Stats
	if err := json.Unmarshal([]byte(statsOut), &st); err != nil {
		t.Fatalf("stats output not JSON: %v\n%s", err, statsOut)
	}
	if st.States[service.StateDone] != 2 || st.Cache.Hits == 0 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestServeAndShutdown covers the daemon subcommand end to end: serve on
// a socket, submit through it, shut it down, and see serve return.
func TestServeAndShutdown(t *testing.T) {
	socket := filepath.Join(t.TempDir(), "hmpid.sock")
	served := make(chan string, 1)
	go func() {
		served <- capture(t, func() {
			cmdServe([]string{"-socket", socket, "-workers", "1"})
		})
	}()
	// Wait until the daemon accepts a connection: its socket file exists
	// from bind on, before listen, while a dial is still refused.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if conn, err := net.Dial("unix", socket); err == nil {
			conn.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("daemon never accepted a connection")
		}
		time.Sleep(10 * time.Millisecond)
	}
	c := service.NewClient(socket)
	info, err := c.Submit(jobSpecForTest(), true)
	if err != nil {
		t.Fatal(err)
	}
	if info.State != service.StateDone {
		t.Fatalf("job state %v", info.State)
	}
	if err := c.Shutdown(); err != nil {
		t.Fatal(err)
	}
	out := <-served
	if !strings.Contains(out, "hmpid: serving on") || !strings.Contains(out, "shutdown after 1 jobs") {
		t.Fatalf("serve output:\n%s", out)
	}
	if _, err := os.Stat(socket); !os.IsNotExist(err) {
		t.Fatalf("stale socket left behind: %v", err)
	}
}

func jobSpecForTest() jobspec.Spec {
	return jobspec.Spec{App: "em3d", Nodes: 40_000, Iters: 2}
}
