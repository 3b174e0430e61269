// Package service is hmpid's core: a long-running, multi-tenant HMPI job
// service. One daemon process keeps the expensive state warm across jobs —
// the selection cache most of all — and runs many concurrent jobs, each on
// its own per-job hmpi.Runtime (New → Run → Finalize per job, never per
// process).
//
// The pieces, mapped to the paper's runtime:
//
//   - A worker pool executes queued jobs concurrently. Runtimes share no
//     mutable state (hmpi.New clones the cluster per job), so a job's
//     simulated makespan is bit-identical to the same spec run serially
//     through hmpirun — concurrency changes throughput, never results.
//   - A daemon-lifetime selection cache (mapper.SelectionCache) carries
//     HMPI_Group_create's canonical-key memoisation across jobs, qualified
//     by cost-model namespaces so tenants on different clusters never
//     alias entries.
//   - Admission control prices every submission with HMPI_Timeof
//     (jobspec.Predict, itself cache-warm): jobs whose predicted makespan
//     exceeds the configured budget are rejected at submit time, and a
//     deficit scheduler shares the workers fairly across tenants.
//   - Each job records a structured trace; its summary and a metrics
//     registry snapshot are attached to the job and streamed to watchers
//     over the control socket (see proto.go).
package service

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/hmpi"
	"repro/internal/jobspec"
	"repro/internal/mapper"
	trc "repro/internal/trace"
)

// State is a job's lifecycle state.
type State string

const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateRejected  State = "rejected"
	StateCancelled State = "cancelled"
)

// Terminal reports whether a job in this state will change no further.
func (s State) Terminal() bool {
	switch s {
	case StateDone, StateFailed, StateRejected, StateCancelled:
		return true
	}
	return false
}

// Config tunes a Server.
type Config struct {
	// Workers is the size of the execution pool (default 4).
	Workers int
	// QueueDepth bounds jobs queued but not yet running (default 256);
	// submissions beyond it are rejected, pushing back on producers.
	QueueDepth int
	// CacheEntries bounds the shared selection cache
	// (mapper.DefaultSelectionCacheEntries when 0).
	CacheEntries int
	// Budget, when positive, is the admission ceiling: a job whose
	// HMPI_Timeof-predicted makespan (simulated seconds) exceeds it is
	// rejected at submit time.
	Budget float64
	// TenantQueueDepth, when positive, additionally bounds one tenant's
	// queued jobs, so a single tenant cannot occupy the whole queue.
	TenantQueueDepth int
}

// JobEvent is one entry of a job's event log, streamed to watchers.
type JobEvent struct {
	Seq   int    `json:"seq"`
	State State  `json:"state"`
	Note  string `json:"note,omitempty"`
}

// TraceSummary condenses a job's recorded trace.
type TraceSummary struct {
	Events   int     `json:"events"`
	Dropped  int64   `json:"dropped"`
	Makespan float64 `json:"makespan"`
}

// JobInfo is the API snapshot of one job.
type JobInfo struct {
	ID        string          `json:"id"`
	Tenant    string          `json:"tenant,omitempty"`
	State     State           `json:"state"`
	Spec      jobspec.Spec    `json:"spec"`
	Predicted float64         `json:"predicted,omitempty"`
	Result    *jobspec.Result `json:"result,omitempty"`
	Err       string          `json:"error,omitempty"`
	Events    []JobEvent      `json:"events,omitempty"`
	Trace     *TraceSummary   `json:"trace,omitempty"`
	Metrics   *trc.Snapshot   `json:"metrics,omitempty"`
}

// Stats is the server-wide counters snapshot.
type Stats struct {
	Queued, Running, Done, Failed, Rejected, Cancelled int64             `json:"-"`
	States                                             map[State]int64   `json:"states"`
	Tenants                                            map[string]int64  `json:"tenants"` // jobs served per tenant
	Cache                                              mapper.CacheStats `json:"cache"`
	UptimeSeconds                                      float64           `json:"uptime_seconds"`
}

// job is the server-private job record.
type job struct {
	id        string
	tenant    string
	spec      jobspec.Spec
	state     State
	predicted float64
	result    *jobspec.Result
	err       string
	events    []JobEvent
	trace     *TraceSummary
	metrics   *trc.Snapshot
	done      chan struct{}
}

// Server is the job service. Create with New, serve its API with Serve
// (proto.go) or call the exported methods directly, stop with Close.
type Server struct {
	cfg   Config
	cache *mapper.SelectionCache
	start time.Time

	mu      sync.Mutex
	cond    *sync.Cond // signalled on queue growth and shutdown
	jobs    map[string]*job
	pending map[string][]*job // per-tenant FIFO of queued jobs
	served  map[string]int64  // per-tenant deficit counters
	nextID  int64
	closed  bool
	wg      sync.WaitGroup
}

// New starts a server and its worker pool.
func New(cfg Config) *Server {
	s := newServer(cfg)
	for i := 0; i < s.cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// newServer builds the server state without starting workers (tests use
// this to exercise queueing and admission deterministically).
func newServer(cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 256
	}
	s := &Server{
		cfg:     cfg,
		cache:   mapper.NewSelectionCache(cfg.CacheEntries),
		start:   time.Now(),
		jobs:    make(map[string]*job),
		pending: make(map[string][]*job),
		served:  make(map[string]int64),
	}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// Cache exposes the daemon-lifetime selection cache (benchmarks read its
// hit rate; tests reset it between phases).
func (s *Server) Cache() *mapper.SelectionCache { return s.cache }

// Submit prices the job, applies admission control, and queues it.
// It returns the job's snapshot — including its admission price — or an
// error when the job is malformed or rejected; rejected jobs are kept and
// queryable by ID (the returned snapshot names it).
func (s *Server) Submit(spec jobspec.Spec) (JobInfo, error) {
	if err := spec.Normalize(); err != nil {
		return JobInfo{}, err
	}
	// Price first, outside the lock: Predict runs a selection search
	// (cache-warm when the spec repeats).
	predicted, perr := spec.Predict(s.cache)

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return JobInfo{}, fmt.Errorf("service: server is shut down")
	}
	s.nextID++
	j := &job{
		id:        fmt.Sprintf("j%d", s.nextID),
		tenant:    spec.Tenant,
		spec:      spec,
		predicted: predicted,
		done:      make(chan struct{}),
	}
	s.jobs[j.id] = j
	reject := func(format string, args ...any) (JobInfo, error) {
		j.err = fmt.Sprintf(format, args...)
		s.transitionLocked(j, StateRejected, j.err)
		close(j.done)
		return s.infoLocked(j, true), fmt.Errorf("service: job %s rejected: %s", j.id, j.err)
	}
	if perr != nil {
		return reject("unpriceable spec: %v", perr)
	}
	if s.cfg.Budget > 0 && predicted > s.cfg.Budget {
		return reject("predicted makespan %.6gs exceeds budget %.6gs", predicted, s.cfg.Budget)
	}
	queued := 0
	for _, q := range s.pending {
		queued += len(q)
	}
	if queued >= s.cfg.QueueDepth {
		return reject("queue full (%d jobs)", queued)
	}
	if s.cfg.TenantQueueDepth > 0 && len(s.pending[j.tenant]) >= s.cfg.TenantQueueDepth {
		return reject("tenant %q queue full (%d jobs)", j.tenant, len(s.pending[j.tenant]))
	}
	s.transitionLocked(j, StateQueued, fmt.Sprintf("predicted %.6gs", predicted))
	s.pending[j.tenant] = append(s.pending[j.tenant], j)
	s.cond.Broadcast()
	return s.infoLocked(j, true), nil
}

// Status returns a job snapshot without its event log and attachments
// (full=false keeps status cheap); Result returns everything.
func (s *Server) Status(id string) (JobInfo, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobInfo{}, fmt.Errorf("service: no job %q", id)
	}
	return s.infoLocked(j, false), nil
}

// Result returns the full job snapshot, blocking until the job reaches a
// terminal state.
func (s *Server) Result(id string) (JobInfo, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return JobInfo{}, fmt.Errorf("service: no job %q", id)
	}
	<-j.done
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.infoLocked(j, true), nil
}

// Cancel cancels a queued job. Running jobs cannot be interrupted (a
// simulated run is one atomic computation); terminal jobs are left as
// they ended.
func (s *Server) Cancel(id string) (JobInfo, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobInfo{}, fmt.Errorf("service: no job %q", id)
	}
	switch j.state {
	case StateQueued:
		q := s.pending[j.tenant]
		for i, p := range q {
			if p == j {
				s.pending[j.tenant] = append(q[:i:i], q[i+1:]...)
				break
			}
		}
		if len(s.pending[j.tenant]) == 0 {
			delete(s.pending, j.tenant)
		}
		s.transitionLocked(j, StateCancelled, "cancelled while queued")
		close(j.done)
		return s.infoLocked(j, false), nil
	case StateRunning:
		return s.infoLocked(j, false), fmt.Errorf("service: job %s is running; a simulated run cannot be interrupted", id)
	default:
		return s.infoLocked(j, false), nil
	}
}

// WatchEvents returns the job's events with Seq >= from, blocking until
// at least one such event exists or the job is terminal. The second
// result reports whether the job is terminal (no further events will
// come). The proto layer calls this in a loop to stream.
func (s *Server) WatchEvents(id string, from int) ([]JobEvent, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, false, fmt.Errorf("service: no job %q", id)
	}
	for len(j.events) <= from && !j.state.Terminal() {
		s.cond.Wait()
	}
	evs := append([]JobEvent(nil), j.events[min(max(from, 0), len(j.events)):]...)
	return evs, j.state.Terminal(), nil
}

// Stats snapshots the server counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		States:        make(map[State]int64),
		Tenants:       make(map[string]int64, len(s.served)),
		Cache:         s.cache.Stats(),
		UptimeSeconds: time.Since(s.start).Seconds(),
	}
	for _, j := range s.jobs {
		st.States[j.state]++
		switch j.state {
		case StateQueued:
			st.Queued++
		case StateRunning:
			st.Running++
		case StateDone:
			st.Done++
		case StateFailed:
			st.Failed++
		case StateRejected:
			st.Rejected++
		case StateCancelled:
			st.Cancelled++
		}
	}
	for t, n := range s.served {
		st.Tenants[t] = n
	}
	return st
}

// Close stops accepting submissions, drains the queue (queued and running
// jobs complete), and stops the workers. Idempotent.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
	s.wg.Wait()
}

// transitionLocked moves a job to a new state, appending to its event log
// and waking watchers. Callers hold s.mu.
func (s *Server) transitionLocked(j *job, to State, note string) {
	j.state = to
	j.events = append(j.events, JobEvent{Seq: len(j.events), State: to, Note: note})
	s.cond.Broadcast()
}

// noteLocked appends an informational event without a state change.
func (s *Server) noteLocked(j *job, note string) {
	j.events = append(j.events, JobEvent{Seq: len(j.events), State: j.state, Note: note})
	s.cond.Broadcast()
}

// infoLocked snapshots a job. full attaches the event log, trace summary,
// metrics, and result payload.
func (s *Server) infoLocked(j *job, full bool) JobInfo {
	info := JobInfo{
		ID: j.id, Tenant: j.tenant, State: j.state,
		Spec: j.spec, Predicted: j.predicted, Err: j.err,
	}
	if full {
		info.Events = append([]JobEvent(nil), j.events...)
		info.Result = j.result
		info.Trace = j.trace
		info.Metrics = j.metrics
	} else if j.state.Terminal() {
		info.Result = j.result
	}
	return info
}

// nextLocked picks the next queued job fairly: the tenant with the lowest
// served count wins (ties by tenant name, so the order is deterministic),
// and its oldest job runs. Returns nil when nothing is queued.
func (s *Server) nextLocked() *job {
	var tenants []string
	for t, q := range s.pending {
		if len(q) > 0 {
			tenants = append(tenants, t)
		}
	}
	if len(tenants) == 0 {
		return nil
	}
	sort.Strings(tenants)
	best := tenants[0]
	for _, t := range tenants[1:] {
		if s.served[t] < s.served[best] {
			best = t
		}
	}
	q := s.pending[best]
	j := q[0]
	if len(q) == 1 {
		delete(s.pending, best)
	} else {
		s.pending[best] = q[1:]
	}
	s.served[best]++
	return j
}

// worker is one pool goroutine: pick fairly, run, record, repeat.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		var j *job
		for {
			if j = s.nextLocked(); j != nil {
				break
			}
			if s.closed {
				s.mu.Unlock()
				return
			}
			s.cond.Wait()
		}
		s.transitionLocked(j, StateRunning, "")
		s.mu.Unlock()

		res, tr, mx, err := s.run(j)

		s.mu.Lock()
		if err != nil {
			j.err = err.Error()
			s.transitionLocked(j, StateFailed, j.err)
		} else {
			j.result, j.trace, j.metrics = res, tr, mx
			s.noteLocked(j, fmt.Sprintf("trace %d events, makespan %.6gs", tr.Events, tr.Makespan))
			s.transitionLocked(j, StateDone, fmt.Sprintf("makespan %.6gs", float64(res.Makespan)))
		}
		close(j.done)
		s.mu.Unlock()
	}
}

// traceShardCap bounds each job recorder's per-rank event ring. The daemon
// condenses every trace to a summary and a metrics snapshot, so a bounded
// ring is the right trade: a small job keeps its full trace, a huge one
// reports Dropped instead of holding every event until it is condensed.
const traceShardCap = 4096

// run executes one job on a fresh runtime with a recorder attached, and
// condenses its observability payload.
func (s *Server) run(j *job) (*jobspec.Result, *TraceSummary, *trc.Snapshot, error) {
	var rec *trc.Recorder
	res, err := jobspec.Execute(j.spec, jobspec.ExecOptions{
		Selection: s.cache,
		OnRuntime: func(rt *hmpi.Runtime) {
			rec = rt.EnableRecorder(j.spec.App, trc.Options{ShardCap: traceShardCap})
		},
	})
	if err != nil {
		return nil, nil, nil, err
	}
	d := rec.Data()
	tr := &TraceSummary{
		Events:   d.NumEvents(),
		Dropped:  d.Meta.Dropped,
		Makespan: float64(d.Makespan()),
	}
	reg := trc.NewRegistry()
	reg.FillFromData(d)
	snap := reg.Snapshot()
	return res, tr, &snap, nil
}
