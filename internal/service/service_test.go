package service

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"

	"repro/internal/hnoc"
	"repro/internal/jobspec"
	trc "repro/internal/trace"
)

// quickSpec returns a small em3d job; vary nodes for distinct problems.
func quickSpec(nodes int) jobspec.Spec {
	s := jobspec.Default()
	s.Nodes, s.Iters = nodes, 2
	return s
}

// mixedSpecs returns n distinct quick jobs across all three apps.
func mixedSpecs(n int) []jobspec.Spec {
	specs := make([]jobspec.Spec, 0, n)
	for i := 0; len(specs) < n; i++ {
		switch i % 3 {
		case 0:
			specs = append(specs, quickSpec(40_000+1_000*i))
		case 1:
			specs = append(specs, jobspec.Spec{App: "jacobi", Grid: 300 + 20*i, P: 4, Iters: 2})
		default:
			specs = append(specs, jobspec.Spec{App: "matmul", N: 24, R: 4, M: 3, L: 4 + i%3*4})
		}
	}
	return specs
}

func TestSubmitRunsJob(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Close()
	info, err := s.Submit(quickSpec(40_000))
	if err != nil {
		t.Fatal(err)
	}
	if info.Predicted <= 0 {
		t.Fatalf("submission not priced: %+v", info)
	}
	done, err := s.Result(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if done.State != StateDone || done.Result == nil || done.Result.Makespan <= 0 {
		t.Fatalf("job did not complete: %+v", done)
	}
	if done.Trace == nil || done.Trace.Events == 0 || done.Trace.Makespan <= 0 {
		t.Fatalf("no trace summary attached: %+v", done.Trace)
	}
	if done.Metrics == nil || len(done.Metrics.Counters) == 0 {
		t.Fatal("no metrics snapshot attached")
	}
	// The event log tells the whole story in order.
	var states []State
	for _, e := range done.Events {
		states = append(states, e.State)
	}
	want := []State{StateQueued, StateRunning, StateRunning, StateDone}
	if fmt.Sprint(states) != fmt.Sprint(want) {
		t.Fatalf("event states = %v, want %v", states, want)
	}
}

// TestAdmissionBudget: pricing by HMPI_Timeof gates admission.
func TestAdmissionBudget(t *testing.T) {
	spec := quickSpec(40_000)
	price, err := spec.Predict(nil)
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Workers: 1, Budget: price / 2})
	defer s.Close()
	info, err := s.Submit(spec)
	if err == nil {
		t.Fatal("over-budget job admitted")
	}
	if info.State != StateRejected || !strings.Contains(info.Err, "exceeds budget") {
		t.Fatalf("wrong rejection: %+v", info)
	}
	// Rejected jobs stay queryable.
	got, err := s.Status(info.ID)
	if err != nil || got.State != StateRejected {
		t.Fatalf("rejected job not queryable: %+v, %v", got, err)
	}
	// Raising the budget admits the same spec.
	s2 := New(Config{Workers: 1, Budget: price * 2})
	defer s2.Close()
	admitted, err := s2.Submit(spec)
	if err != nil {
		t.Fatalf("under-budget job rejected: %v", err)
	}
	// The budget is in simulated seconds: an absolute ceiling of ten times
	// the makespan the job is then observed to take admits it too.
	done, err := s2.Result(admitted.ID)
	if err != nil || done.Result == nil {
		t.Fatalf("admitted job did not complete: %+v, %v", done, err)
	}
	s3 := New(Config{Workers: 1, Budget: 10 * float64(done.Result.Makespan)})
	defer s3.Close()
	if info, err := s3.Submit(spec); err != nil {
		t.Fatalf("job priced %.6g s rejected under a budget of 10 makespans (%.6g s): %v",
			info.Predicted, 10*float64(done.Result.Makespan), err)
	}
}

// TestAdmissionQueueDepth: global and per-tenant queue bounds reject at
// submit time (worker-less server, so nothing drains the queue).
func TestAdmissionQueueDepth(t *testing.T) {
	s := newServer(Config{QueueDepth: 2, TenantQueueDepth: 1})
	spec := quickSpec(40_000)
	spec.Tenant = "a"
	if _, err := s.Submit(spec); err != nil {
		t.Fatal(err)
	}
	if info, err := s.Submit(spec); err == nil || info.State != StateRejected ||
		!strings.Contains(info.Err, `tenant "a" queue full`) {
		t.Fatalf("tenant bound not enforced: %+v, %v", info, err)
	}
	spec.Tenant = "b"
	if _, err := s.Submit(spec); err != nil {
		t.Fatal(err)
	}
	spec.Tenant = "c"
	if info, err := s.Submit(spec); err == nil || !strings.Contains(info.Err, "queue full") {
		t.Fatalf("global bound not enforced: %+v, %v", info, err)
	}
}

// TestUnpriceableRejected: a spec Predict cannot price is rejected (here
// a valid two-machine cluster that cannot seat em3d's nine processes).
func TestUnpriceableRejected(t *testing.T) {
	s := newServer(Config{})
	spec := quickSpec(40_000)
	spec.Cluster = &hnoc.Cluster{
		Machines: []hnoc.Machine{{Name: "a", Speed: 40}, {Name: "b", Speed: 50}},
		Remote:   hnoc.Ethernet100(),
		Local:    hnoc.SharedMemory(),
	}
	info, err := s.Submit(spec)
	if err == nil || info.State != StateRejected || !strings.Contains(info.Err, "unpriceable") {
		t.Fatalf("unpriceable job admitted: %+v, %v", info, err)
	}
}

// TestMalformedChaosIsASubmitError: a schedule that does not parse is
// refused at submission, not queued for a worker to fail.
func TestMalformedChaosIsASubmitError(t *testing.T) {
	s := newServer(Config{})
	spec := quickSpec(40_000)
	spec.Chaos = "link:1-2@0:drop="
	if info, err := s.Submit(spec); err == nil || info.ID != "" {
		t.Fatalf("malformed chaos schedule admitted: %+v, %v", info, err)
	}
	if len(s.jobs) != 0 {
		t.Fatalf("malformed job recorded: %d jobs", len(s.jobs))
	}
}

// TestFairScheduling: the deficit scheduler round-robins tenants no
// matter how unbalanced the queues are, deterministically.
func TestFairScheduling(t *testing.T) {
	s := newServer(Config{})
	submit := func(tenant string) {
		spec := quickSpec(40_000)
		spec.Tenant = tenant
		if _, err := s.Submit(spec); err != nil {
			t.Fatal(err)
		}
	}
	// Tenant a floods; b and c each queue one job.
	for i := 0; i < 4; i++ {
		submit("a")
	}
	submit("b")
	submit("c")
	var order []string
	s.mu.Lock()
	for j := s.nextLocked(); j != nil; j = s.nextLocked() {
		order = append(order, j.tenant)
	}
	s.mu.Unlock()
	want := []string{"a", "b", "c", "a", "a", "a"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("schedule order = %v, want %v", order, want)
	}
}

func TestCancel(t *testing.T) {
	s := newServer(Config{}) // no workers: jobs stay queued
	info, err := s.Submit(quickSpec(40_000))
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Cancel(info.ID)
	if err != nil || got.State != StateCancelled {
		t.Fatalf("cancel failed: %+v, %v", got, err)
	}
	// Result resolves immediately for a cancelled job; cancelling again
	// is a no-op.
	if got, err = s.Result(info.ID); err != nil || got.State != StateCancelled {
		t.Fatalf("cancelled job not terminal: %+v, %v", got, err)
	}
	if got, err = s.Cancel(info.ID); err != nil || got.State != StateCancelled {
		t.Fatalf("re-cancel not idempotent: %+v, %v", got, err)
	}
	if _, err := s.Cancel("j999"); err == nil {
		t.Fatal("cancelling an unknown job succeeded")
	}
}

// TestConcurrentMatchesSerial is the daemon's core guarantee: >= 8 jobs
// in flight at once through the shared-cache worker pool produce
// makespans bit-identical to the same specs run serially and uncached
// through the hmpirun path (jobspec.Execute). Run under -race in CI.
func TestConcurrentMatchesSerial(t *testing.T) {
	specs := mixedSpecs(12)

	// Serial reference: no daemon, no cache — exactly what hmpirun does.
	serial := make([]*jobspec.Result, len(specs))
	for i, sp := range specs {
		res, err := jobspec.Execute(sp, jobspec.ExecOptions{})
		if err != nil {
			t.Fatal(err)
		}
		serial[i] = res
	}

	s := New(Config{Workers: 8})
	defer s.Close()
	var wg sync.WaitGroup
	got := make([]*jobspec.Result, len(specs))
	errs := make([]error, len(specs))
	for i, sp := range specs {
		wg.Add(1)
		go func(i int, sp jobspec.Spec) {
			defer wg.Done()
			info, err := s.Submit(sp)
			if err == nil {
				info, err = s.Result(info.ID)
			}
			if err == nil {
				got[i] = info.Result
			}
			errs[i] = err
		}(i, sp)
	}
	wg.Wait()
	for i := range specs {
		if errs[i] != nil {
			t.Fatalf("job %d: %v", i, errs[i])
		}
		if got[i].Makespan != serial[i].Makespan || got[i].Time != serial[i].Time {
			t.Fatalf("job %d (%s): daemon makespan %v/%v != serial %v/%v",
				i, specs[i].App, got[i].Makespan, got[i].Time, serial[i].Makespan, serial[i].Time)
		}
	}
	if st := s.Stats(); st.Done != int64(len(specs)) {
		t.Fatalf("stats done = %d, want %d", st.Done, len(specs))
	}
}

// TestCacheCarriesAcrossJobs: repeated specs hit the daemon-lifetime
// cache, and the stats expose it. Six processes on the paper's nine
// machines keep the selection search exhaustive (9^5 candidates), so the
// solve layer carries the repeats: the exhaustive search reads no values.
func TestCacheCarriesAcrossJobs(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Close()
	spec := quickSpec(6_000)
	spec.P = 6
	for i := 0; i < 3; i++ {
		info, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Result(info.ID); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Cache.SolveHits == 0 {
		t.Fatalf("repeated specs never hit the daemon cache: %+v", st.Cache)
	}
	if st.Cache.SolveHitRate() <= 0.5 {
		t.Fatalf("solve hit rate %.2f on identical repeats, want > 0.5", st.Cache.SolveHitRate())
	}
	if st.Tenants[""] != 3 {
		t.Fatalf("served counter = %v, want 3", st.Tenants)
	}
}

// TestWatchEvents: watchers see the full ordered event log and learn
// the job is terminal.
func TestWatchEvents(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	info, err := s.Submit(quickSpec(40_000))
	if err != nil {
		t.Fatal(err)
	}
	var evs []JobEvent
	from := 0
	for {
		batch, terminal, err := s.WatchEvents(info.ID, from)
		if err != nil {
			t.Fatal(err)
		}
		evs = append(evs, batch...)
		if len(batch) > 0 {
			from = batch[len(batch)-1].Seq + 1
		}
		if terminal && len(batch) == 0 {
			break
		}
	}
	if len(evs) < 3 || evs[0].State != StateQueued || evs[len(evs)-1].State != StateDone {
		t.Fatalf("watch saw %v", evs)
	}
	for i, e := range evs {
		if e.Seq != i {
			t.Fatalf("event %d has seq %d", i, e.Seq)
		}
	}
}

// TestCloseDrains: Close refuses new work but completes queued jobs.
func TestCloseDrains(t *testing.T) {
	s := New(Config{Workers: 2})
	var ids []string
	for i := 0; i < 4; i++ {
		info, err := s.Submit(quickSpec(40_000 + 1_000*i))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, info.ID)
	}
	s.Close()
	if _, err := s.Submit(quickSpec(40_000)); err == nil {
		t.Fatal("submit after Close succeeded")
	}
	for _, id := range ids {
		info, err := s.Result(id)
		if err != nil || info.State != StateDone {
			t.Fatalf("job %s not drained: %+v, %v", id, info, err)
		}
	}
	s.Close() // idempotent
}

var updateGolden = flag.Bool("update", false, "rewrite testdata/condensed.golden.json")

// TestCondensedGolden pins what a job's recorder condenses to: the
// JobInfo.Trace and JobInfo.Metrics JSON of one fixed spec per app is
// byte-identical to testdata/condensed.golden.json, which was captured
// from the commit before the recorder learned to grow (PR 17). Any change
// to the recorder, Data or FillFromData that moves an event count, the
// send-size histogram or the makespan shows up here.
func TestCondensedGolden(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	var buf bytes.Buffer
	for _, sp := range mixedSpecs(3) {
		info, err := s.Submit(sp)
		if err == nil {
			info, err = s.Result(info.ID)
		}
		if err != nil {
			t.Fatalf("%s: %v", sp.App, err)
		}
		doc, err := json.MarshalIndent(struct {
			App     string        `json:"app"`
			Trace   *TraceSummary `json:"trace"`
			Metrics *trc.Snapshot `json:"metrics"`
		}{sp.App, info.Trace, info.Metrics}, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(doc)
		buf.WriteByte('\n')
	}
	const golden = "testdata/condensed.golden.json"
	if *updateGolden {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with go test -run CondensedGolden -update)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("condensed trace/metrics differ from %s:\n got:\n%s\nwant:\n%s", golden, buf.Bytes(), want)
	}
}
