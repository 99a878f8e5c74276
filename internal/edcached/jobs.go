package edcached

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"edcache/internal/experiments"
	"edcache/internal/sim"
	"edcache/internal/store"
)

// logf is the service's warning sink, swappable by tests.
var logf = log.Printf

// Submission errors the server maps to status codes.
var (
	// ErrQueueFull rejects a submission over the live-job bound (429).
	ErrQueueFull = errors.New("edcached: job queue full")
	// ErrDraining rejects work while the server shuts down (503).
	ErrDraining = errors.New("edcached: draining")
	// ErrBadRequest marks client mistakes (400).
	ErrBadRequest = errors.New("bad request")
)

// Cancellation causes, distinguished via context.Cause so the
// supervisor can tell a drain (leave the job resumable) from a client
// cancel (terminal) from a deadline (terminal failure).
var (
	errDraining  = errors.New("edcached: server draining")
	errCancelled = errors.New("edcached: cancelled by client")
	errDeadline  = errors.New("edcached: job deadline exceeded")
)

// RegistryFunc builds the experiment registry for a job's options.
// It is a function, not a fixed registry, because the options shape
// the grids (instruction counts, trial counts) at registration time.
type RegistryFunc func(o GridOptions) *sim.Registry

// ScopeFunc derives the store scope — the digest prefix covering
// everything beyond grid coordinates that could change result bytes —
// for a job's options and seed.
type ScopeFunc func(o GridOptions, seed int64) []string

// DefaultRegistry registers the paper's full experiment suite with the
// job's options, exactly as cmd/experiments does.
func DefaultRegistry(o GridOptions) *sim.Registry {
	reg := sim.NewRegistry()
	experiments.RegisterAll(reg, experiments.Options{
		Instructions: o.Instructions,
		Trials:       o.Trials,
		Workers:      o.Workers,
	})
	return reg
}

// DefaultScope matches cmd/experiments' scope byte-for-byte, so a
// store populated by the CLI serves this daemon's jobs and vice versa.
func DefaultScope(o GridOptions, seed int64) []string {
	opts := experiments.Options{
		Instructions: o.Instructions,
		Trials:       o.Trials,
		Workers:      o.Workers,
	}
	return []string{store.ModuleVersion(), opts.CanonicalString(), "seed=" + strconv.FormatInt(seed, 10)}
}

// Config wires a Manager. Zero values select the documented defaults.
type Config struct {
	// Store is the shared result cache every job checkpoints through;
	// StoreDir is its directory, handed to external workers so they
	// open the same store. Both are required.
	Store    *store.Store
	StoreDir string
	// JobsDir holds the job journal (one JSON file per job) that makes
	// jobs survive a server restart. Required.
	JobsDir string

	// Registry and Scope default to DefaultRegistry and DefaultScope;
	// tests substitute cheap private suites.
	Registry RegistryFunc
	Scope    ScopeFunc

	// Workers is the in-process shard-worker count. 0 means none: every
	// shard waits for external `edcached -worker` claimants.
	Workers int
	// QueueLimit bounds live (non-terminal) jobs; 0 means 16.
	QueueLimit int
	// DefaultShards is the per-job shard count when the spec leaves it
	// 0 (capped at the grid size); 0 means 8.
	DefaultShards int
	// LeaseTTL is how long a shard lease lives between renewals;
	// 0 means 10s.
	LeaseTTL time.Duration
	// MaxShardAttempts poisons a job whose shard keeps failing or
	// expiring; 0 means 5.
	MaxShardAttempts int
	// DefaultDeadline caps jobs that do not set one; 0 means none.
	DefaultDeadline time.Duration

	// RequestTimeout bounds every non-streaming HTTP request;
	// 0 means 30s. (Used by Server, carried here so one struct
	// configures the daemon.)
	RequestTimeout time.Duration

	// now is the lease clock, injectable by tests.
	now func() time.Time
}

func (c Config) withDefaults() Config {
	if c.Registry == nil {
		c.Registry = DefaultRegistry
	}
	if c.Scope == nil {
		c.Scope = DefaultScope
	}
	if c.QueueLimit <= 0 {
		c.QueueLimit = 16
	}
	if c.DefaultShards <= 0 {
		c.DefaultShards = 8
	}
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 10 * time.Second
	}
	if c.MaxShardAttempts <= 0 {
		c.MaxShardAttempts = 5
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.now == nil {
		c.now = time.Now
	}
	return c
}

// job is one sweep under supervision.
type job struct {
	id      string
	spec    JobSpec
	exp     sim.Experiment
	expName string
	grid    []sim.Task
	scope   []string
	cache   *sim.StoreCache
	table   *shardTable // nil for journal tombstones
	events  *eventLog

	ctx     context.Context
	cancel  context.CancelCauseFunc
	cancelT context.CancelFunc // releases the deadline timer, when one exists

	mu      sync.Mutex
	state   JobState
	errMsg  string
	lastErr string // most recent shard failure, folded into poison reports
	points  map[int]struct{}
	results map[int]sim.Result
	final   []sim.Result
}

func (j *job) terminal() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state.Terminal()
}

// setRunning flips queued→running once, with its state event.
func (j *job) setRunning() {
	j.mu.Lock()
	if j.state != JobQueued {
		j.mu.Unlock()
		return
	}
	j.state = JobRunning
	j.mu.Unlock()
	j.events.append(Event{Type: "state", State: JobRunning})
}

// pointEvent is the Runner Progress hook: one event per unique grid
// point. A shard re-run after a lease expiry recomputes points the
// first attempt already reported; the dedup keeps the stream (and the
// PointsDone counter) honest.
func (j *job) pointEvent(r sim.Result, cached bool) {
	j.mu.Lock()
	if _, seen := j.points[r.Task.ID]; seen {
		j.mu.Unlock()
		return
	}
	j.points[r.Task.ID] = struct{}{}
	j.mu.Unlock()
	j.events.append(Event{Type: "point", Task: r.Task.ID, Label: r.Task.Label, Cached: cached})
}

// Manager owns the job table, the lease clock, and the in-process
// worker pool. All methods are safe for concurrent use.
type Manager struct {
	cfg   Config
	store *store.Store

	mu       sync.Mutex
	cond     *sync.Cond // signalled when shards become claimable (or shutdown)
	jobs     map[string]*job
	order    []string
	nextID   int
	draining bool

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// NewManager builds the manager, replays the job journal (terminal
// jobs become queryable tombstones; unfinished jobs are re-enqueued and
// re-run through the store, which serves their checkpointed points as
// hits), and starts the lease-expiry sweeper and the in-process
// workers.
func NewManager(cfg Config) (*Manager, error) {
	cfg = cfg.withDefaults()
	if cfg.Store == nil || cfg.StoreDir == "" {
		return nil, errors.New("edcached: Config.Store and StoreDir are required")
	}
	if cfg.JobsDir == "" {
		return nil, errors.New("edcached: Config.JobsDir is required")
	}
	if err := os.MkdirAll(cfg.JobsDir, 0o755); err != nil {
		return nil, fmt.Errorf("edcached: jobs dir: %w", err)
	}
	m := &Manager{
		cfg:    cfg,
		store:  cfg.Store,
		jobs:   make(map[string]*job),
		nextID: 1,
	}
	m.cond = sync.NewCond(&m.mu)
	m.ctx, m.cancel = context.WithCancel(context.Background())

	if err := m.replayJournal(); err != nil {
		return nil, err
	}

	m.wg.Add(1)
	go m.expiryLoop()
	for i := 0; i < cfg.Workers; i++ {
		m.wg.Add(1)
		go m.workerLoop(fmt.Sprintf("local-%d", i))
	}
	// A cancelled manager context must wake claim-waiting workers.
	go func() {
		<-m.ctx.Done()
		m.cond.Broadcast()
	}()
	return m, nil
}

// Admission caps on a job's grid options, 33× and 500× paper scale:
// instructions size every workload slab (16 B each), so an unbounded
// count lets one request make the first claimant allocate terabytes.
const (
	maxInstructions = 10_000_000
	maxTrials       = 1_000_000
)

// Submit validates and enqueues a job.
func (m *Manager) Submit(spec JobSpec) (JobStatus, error) {
	if spec.Options.Instructions > maxInstructions || spec.Options.Trials > maxTrials {
		return JobStatus{}, fmt.Errorf("%w: options exceed instructions %d or trials %d",
			ErrBadRequest, maxInstructions, maxTrials)
	}
	if spec.DeadlineMS < 0 || spec.DeadlineMS > math.MaxInt64/int64(time.Millisecond) {
		return JobStatus{}, fmt.Errorf("%w: deadlineMS %d does not fit a time.Duration", ErrBadRequest, spec.DeadlineMS)
	}
	reg := m.cfg.Registry(spec.Options)
	names, err := reg.Resolve(spec.Experiment)
	if err != nil {
		return JobStatus{}, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	if len(names) != 1 {
		return JobStatus{}, fmt.Errorf("%w: %q selects %d experiments; a job is one grid",
			ErrBadRequest, spec.Experiment, len(names))
	}
	e, _ := reg.Get(names[0])
	grid := e.Grid()

	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		return JobStatus{}, ErrDraining
	}
	if m.liveJobsLocked() >= m.cfg.QueueLimit {
		m.mu.Unlock()
		return JobStatus{}, ErrQueueFull
	}
	id := "j" + strconv.Itoa(m.nextID)
	m.nextID++
	j := m.newJobLocked(id, spec, e, names[0], grid)
	m.mu.Unlock()

	m.journal(j)
	j.events.append(Event{Type: "state", State: JobQueued})
	m.wg.Add(1)
	go m.supervise(j)
	m.cond.Broadcast()
	return m.statusOf(j), nil
}

// newJobLocked builds and registers a live job; m.mu must be held.
func (m *Manager) newJobLocked(id string, spec JobSpec, e sim.Experiment, name string, grid []sim.Task) *job {
	j := &job{
		id:      id,
		spec:    spec,
		exp:     e,
		expName: name,
		grid:    grid,
		scope:   m.cfg.Scope(spec.Options, spec.Seed),
		events:  newEventLog(),
		state:   JobQueued,
		points:  make(map[int]struct{}),
		results: make(map[int]sim.Result),
	}
	j.cache = &sim.StoreCache{Store: m.store, Scope: j.scope, Read: true}

	shards := spec.Shards
	if shards <= 0 {
		shards = m.cfg.DefaultShards
	}
	j.table = newShardTable(len(grid), shards, m.cfg.LeaseTTL, m.cfg.MaxShardAttempts)
	j.table.now = m.cfg.now

	ctx, cancel := context.WithCancelCause(m.ctx)
	deadline := time.Duration(spec.DeadlineMS) * time.Millisecond
	if deadline <= 0 {
		deadline = m.cfg.DefaultDeadline
	}
	if deadline > 0 {
		ctx, j.cancelT = context.WithTimeoutCause(ctx, deadline, errDeadline)
	}
	j.ctx, j.cancel = ctx, cancel

	m.jobs[id] = j
	m.order = append(m.order, id)
	return j
}

// liveJobsLocked counts non-terminal jobs; m.mu must be held.
func (m *Manager) liveJobsLocked() int {
	n := 0
	for _, id := range m.order {
		if !m.jobs[id].terminal() {
			n++
		}
	}
	return n
}

// Job returns the job's status.
func (m *Manager) Job(id string) (JobStatus, bool) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return JobStatus{}, false
	}
	return m.statusOf(j), true
}

// Events returns the job's event log for streaming.
func (m *Manager) Events(id string) (*eventLog, bool) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return nil, false
	}
	return j.events, true
}

// Result returns a done job's final result set.
func (m *Manager) Result(id string) ([]sim.Result, JobState, bool) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return nil, "", false
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.final, j.state, true
}

// Cancel requests a job's cancellation; terminal jobs are unaffected.
func (m *Manager) Cancel(id string) bool {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return false
	}
	if j.cancel != nil {
		j.cancel(errCancelled)
	}
	return true
}

func (m *Manager) statusOf(j *job) JobStatus {
	j.mu.Lock()
	st := JobStatus{
		ID:          j.id,
		Spec:        j.spec,
		State:       j.state,
		Error:       j.errMsg,
		PointsDone:  len(j.points),
		TotalPoints: len(j.grid),
	}
	j.mu.Unlock()
	if j.cache != nil {
		st.Cache = j.cache.Stats()
	}
	if j.table != nil {
		st.Shards = j.table.statuses()
	}
	return st
}

// StoreStatus snapshots the shared store and the service load.
func (m *Manager) StoreStatus() StoreStatus {
	st := m.store.Stats()
	m.mu.Lock()
	defer m.mu.Unlock()
	return StoreStatus{
		Dir:             m.cfg.StoreDir,
		Hits:            st.Hits,
		Misses:          st.Misses,
		Quarantined:     st.Quarantined,
		QuarantineFiles: st.QuarantineFiles,
		Jobs:            len(m.order),
		LiveJobs:        m.liveJobsLocked(),
		Draining:        m.draining,
	}
}

// Draining reports whether a drain has started (for /readyz).
func (m *Manager) Draining() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.draining
}

// ---- lease protocol ----

// Claim leases the first pending shard of the oldest claimable job.
// ok is false when nothing is claimable right now.
func (m *Manager) Claim(req ClaimRequest) (ClaimResponse, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, idx, gen, ids, ok := m.claimLocked(req.Worker)
	if !ok {
		return ClaimResponse{}, false
	}
	return ClaimResponse{
		Job:        j.id,
		Shard:      idx,
		Gen:        gen,
		TTLMS:      m.cfg.LeaseTTL.Milliseconds(),
		Experiment: j.expName,
		Seed:       j.spec.Seed,
		Options:    j.spec.Options,
		TaskIDs:    ids,
		StoreDir:   m.cfg.StoreDir,
		Scope:      j.scope,
	}, true
}

// claimLocked is the shared claim path (in-process workers and the
// HTTP handler); m.mu must be held.
func (m *Manager) claimLocked(worker string) (j *job, idx, gen int, ids []int, ok bool) {
	if m.draining {
		return nil, 0, 0, nil, false
	}
	for _, id := range m.order {
		cand := m.jobs[id]
		if cand.table == nil || cand.terminal() || cand.ctx.Err() != nil {
			continue
		}
		if idx, gen, ids, ok = cand.table.claim(worker); ok {
			cand.setRunning()
			cand.events.append(Event{Type: "shard", Shard: idx, What: "leased", Worker: worker})
			return cand, idx, gen, ids, true
		}
	}
	return nil, 0, 0, nil, false
}

// Renew extends an external worker's lease; false means the lease is
// gone (expired and re-issued, or the job ended) and the worker should
// abandon the shard.
func (m *Manager) Renew(ref ShardRef) bool {
	m.mu.Lock()
	j, ok := m.jobs[ref.Job]
	m.mu.Unlock()
	if !ok || j.table == nil || j.terminal() {
		return false
	}
	return j.table.renew(ref.Shard, ref.Gen)
}

// CompleteExternal accepts an external worker's shard completion. The
// server trusts nothing in the request beyond the coordinates: it
// re-reads every task of the shard from the shared store — the worker's
// checkpoints — and deposits those verified results. A missing or
// undecodable entry fails the completion (the worker checkpointed
// nothing usable) and releases the shard for re-execution.
func (m *Manager) CompleteExternal(ref ShardRef) error {
	m.mu.Lock()
	j, ok := m.jobs[ref.Job]
	m.mu.Unlock()
	if !ok {
		return fmt.Errorf("unknown job %q", ref.Job)
	}
	if j.table == nil || j.terminal() {
		return fmt.Errorf("job %s is finished", ref.Job)
	}
	ids, ok := j.table.shardIDs(ref.Shard)
	if !ok {
		return fmt.Errorf("job %s has no shard %d", ref.Job, ref.Shard)
	}
	verifier := &sim.StoreCache{Store: m.store, Scope: j.scope, Read: true}
	results := make([]sim.Result, 0, len(ids))
	for _, id := range ids {
		t := j.grid[id]
		t.ID = id
		t.Seed = sim.SubSeed(j.spec.Seed, j.expName, id)
		r, hit := verifier.Get(j.expName, t)
		if !hit {
			j.table.fail(ref.Shard, ref.Gen, true)
			m.cond.Broadcast()
			return fmt.Errorf("shard %d task %d not in store; completion rejected", ref.Shard, id)
		}
		r.Experiment = j.expName
		r.Task = t
		results = append(results, r)
	}
	for _, r := range results {
		j.pointEvent(r, true)
	}
	m.depositShard(j, ref.Shard, results, ref.Worker)
	return nil
}

// shardIDs exposes a shard's task list for completion verification.
func (t *shardTable) shardIDs(idx int) ([]int, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if idx < 0 || idx >= len(t.shards) {
		return nil, false
	}
	return t.shards[idx].ids, true
}

// depositShard stores a shard's results and marks it done.
func (m *Manager) depositShard(j *job, idx int, results []sim.Result, worker string) {
	j.mu.Lock()
	for _, r := range results {
		j.results[r.Task.ID] = r
	}
	j.mu.Unlock()
	if j.table.complete(idx) {
		j.events.append(Event{Type: "shard", Shard: idx, What: "done", Worker: worker})
	}
}

// ---- in-process workers ----

func (m *Manager) workerLoop(name string) {
	defer m.wg.Done()
	for {
		j, idx, gen, ids, ok := m.claimWait(name)
		if !ok {
			return
		}
		m.runShard(j, name, idx, gen, ids)
	}
}

// claimWait blocks until a shard is claimable or the manager stops.
func (m *Manager) claimWait(worker string) (j *job, idx, gen int, ids []int, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for {
		if m.ctx.Err() != nil {
			return nil, 0, 0, nil, false
		}
		if j, idx, gen, ids, ok = m.claimLocked(worker); ok {
			return j, idx, gen, ids, true
		}
		m.cond.Wait()
	}
}

// runShard computes one leased shard under a heartbeat: the lease is
// renewed at TTL/3, and a failed renewal — the lease expired and moved
// on — cancels the shard's context so this worker stops burning CPU on
// work someone else now owns. (Its checkpoints so far still help: the
// new holder replays them from the store.)
func (m *Manager) runShard(j *job, worker string, idx, gen int, ids []int) {
	shardCtx, stop := withHeartbeat(j.ctx, m.cfg.LeaseTTL, func(context.Context) bool {
		return j.table.renew(idx, gen)
	})
	runner := sim.Runner{Workers: 1, Seed: j.spec.Seed, Cache: j.cache, Progress: j.pointEvent}
	results, err := runner.RunTasks(shardCtx, j.exp, ids)
	stop()

	if err != nil {
		var pe *sim.PanicError
		if errors.As(err, &pe) {
			// The experiment's own code panicked. Deterministic re-runs
			// would panic identically; quarantine the job, keep serving.
			j.table.fail(idx, gen, false)
			m.finishJob(j, JobQuarantined, err.Error())
			m.cond.Broadcast()
			return
		}
		// Penalize only genuine task failures: a cancelled job or a lost
		// lease is scheduling, not evidence the shard is bad.
		penalize := !errors.Is(context.Cause(shardCtx), errLeaseLost) && j.ctx.Err() == nil
		j.table.fail(idx, gen, penalize)
		if penalize {
			j.mu.Lock()
			j.lastErr = err.Error()
			j.mu.Unlock()
			j.events.append(Event{Type: "shard", Shard: idx, What: "failed", Worker: worker, Error: err.Error()})
		}
		m.cond.Broadcast()
		return
	}
	m.depositShard(j, idx, results, worker)
}

// ---- supervision ----

func (m *Manager) supervise(j *job) {
	defer m.wg.Done()
	select {
	case <-j.table.wait():
		if perr := j.table.err(); perr != nil {
			msg := perr.Error()
			j.mu.Lock()
			if j.lastErr != "" {
				msg += ": " + j.lastErr
			}
			j.mu.Unlock()
			m.finishJob(j, JobFailed, msg)
			return
		}
		m.assemble(j)
	case <-j.ctx.Done():
		switch cause := context.Cause(j.ctx); {
		case errors.Is(cause, errDraining):
			// Deliberately NOT terminal: the journal still says
			// queued/running, so the restarted server re-enqueues the
			// job and replays its checkpointed points from the store.
			return
		case errors.Is(cause, errCancelled):
			m.finishJob(j, JobCancelled, "cancelled")
		default:
			m.finishJob(j, JobFailed, cause.Error())
		}
	}
}

// assemble orders the deposited shard results by grid index, applies
// the Finish hook (sim.Finish shields it: a panic there quarantines the
// job) and completes the job.
func (m *Manager) assemble(j *job) {
	j.mu.Lock()
	results := make([]sim.Result, 0, len(j.grid))
	for i := range j.grid {
		r, ok := j.results[i]
		if !ok {
			j.mu.Unlock()
			m.finishJob(j, JobFailed, fmt.Sprintf("internal: task %d missing after all shards completed", i))
			return
		}
		results = append(results, r)
	}
	j.mu.Unlock()

	final, err := sim.Finish(j.exp, results)
	if err != nil {
		state := JobFailed
		var pe *sim.PanicError
		if errors.As(err, &pe) {
			state = JobQuarantined
		}
		m.finishJob(j, state, err.Error())
		return
	}
	j.mu.Lock()
	j.final = final
	j.mu.Unlock()
	m.finishJob(j, JobDone, "")
}

// finishJob performs the single terminal transition: state, journal,
// final state event, stream close, context release.
func (m *Manager) finishJob(j *job, state JobState, errMsg string) {
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		return
	}
	j.state = state
	j.errMsg = errMsg
	j.mu.Unlock()
	m.journal(j)
	j.events.append(Event{Type: "state", State: state, Error: errMsg})
	j.events.close()
	if j.cancel != nil {
		j.cancel(nil)
	}
	if j.cancelT != nil {
		j.cancelT()
	}
	m.cond.Broadcast()
}

// expiryLoop sweeps shard leases past their TTL back to pending.
func (m *Manager) expiryLoop() {
	defer m.wg.Done()
	period := m.cfg.LeaseTTL / 4
	if period < 5*time.Millisecond {
		period = 5 * time.Millisecond
	}
	tick := time.NewTicker(period)
	defer tick.Stop()
	for {
		select {
		case <-m.ctx.Done():
			return
		case <-tick.C:
		}
		m.mu.Lock()
		live := make([]*job, 0, len(m.order))
		for _, id := range m.order {
			if j := m.jobs[id]; j.table != nil && !j.terminal() {
				live = append(live, j)
			}
		}
		m.mu.Unlock()
		woke := false
		for _, j := range live {
			for _, idx := range j.table.expireDue() {
				j.events.append(Event{Type: "shard", Shard: idx, What: "expired"})
				woke = true
			}
		}
		if woke {
			m.cond.Broadcast()
		}
	}
}

// ---- drain ----

// Drain stops accepting work, cancels every live job with the draining
// cause (supervisors leave them resumable in the journal; in-flight
// shards checkpoint their completed points to the store on the way
// out), and waits — bounded by ctx — for every goroutine to exit.
func (m *Manager) Drain(ctx context.Context) error {
	m.mu.Lock()
	already := m.draining
	m.draining = true
	live := make([]*job, 0, len(m.order))
	for _, id := range m.order {
		if j := m.jobs[id]; j.cancel != nil && !j.terminal() {
			live = append(live, j)
		}
	}
	m.mu.Unlock()
	if !already {
		for _, j := range live {
			j.cancel(errDraining)
		}
		m.cancel()
		m.cond.Broadcast()
	}
	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("edcached: drain incomplete: %w", ctx.Err())
	}
}

// ---- journal ----

// journalEntry is the on-disk job record: just enough to resume (spec)
// or answer for (terminal state) the job after a restart.
type journalEntry struct {
	ID    string   `json:"id"`
	Spec  JobSpec  `json:"spec"`
	State JobState `json:"state"`
	Error string   `json:"error,omitempty"`
}

// journal durably records the job's current state with the store's
// write discipline (temp + rename + dir sync). Journal failures are
// logged, never fatal: a lost journal write costs restart fidelity,
// not correctness — results always re-derive from the store.
func (m *Manager) journal(j *job) {
	j.mu.Lock()
	e := journalEntry{ID: j.id, Spec: j.spec, State: j.state, Error: j.errMsg}
	j.mu.Unlock()
	if e.State == JobRunning {
		e.State = JobQueued // running resumes as queued; the store replays it
	}
	b, err := json.Marshal(e)
	if err != nil {
		logf("edcached: journal %s: %v", j.id, err)
		return
	}
	path := filepath.Join(m.cfg.JobsDir, j.id+".json")
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		logf("edcached: journal %s: %v", j.id, err)
		return
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		logf("edcached: journal %s: %v", j.id, err)
		return
	}
	store.OSFS{}.SyncDir(m.cfg.JobsDir)
}

// replayJournal loads every journaled job: terminal states become
// queryable tombstones; unfinished jobs are re-enqueued (bypassing the
// queue limit — they were already admitted once) and re-run, with the
// store serving every point they had checkpointed before the restart.
func (m *Manager) replayJournal() error {
	dirents, err := os.ReadDir(m.cfg.JobsDir)
	if err != nil {
		return fmt.Errorf("edcached: jobs dir: %w", err)
	}
	type numbered struct {
		n int
		e journalEntry
	}
	var entries []numbered
	for _, de := range dirents {
		name := de.Name()
		if de.IsDir() || !strings.HasPrefix(name, "j") || !strings.HasSuffix(name, ".json") {
			continue
		}
		n, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, "j"), ".json"))
		if err != nil {
			continue
		}
		b, err := os.ReadFile(filepath.Join(m.cfg.JobsDir, name))
		if err != nil {
			logf("edcached: journal read %s: %v", name, err)
			continue
		}
		var e journalEntry
		if err := json.Unmarshal(b, &e); err != nil {
			logf("edcached: journal parse %s: %v", name, err)
			continue
		}
		entries = append(entries, numbered{n, e})
	}
	sort.Slice(entries, func(i, k int) bool { return entries[i].n < entries[k].n })

	for _, ne := range entries {
		e := ne.e
		if ne.n >= m.nextID {
			m.nextID = ne.n + 1
		}
		if e.State.Terminal() {
			m.addTombstone(e)
			continue
		}
		// Re-enqueue: resolve the experiment again (the registry may
		// have changed across the restart).
		reg := m.cfg.Registry(e.Spec.Options)
		names, rerr := reg.Resolve(e.Spec.Experiment)
		if rerr != nil || len(names) != 1 {
			e.State = JobFailed
			e.Error = fmt.Sprintf("not resumable after restart: %v", rerr)
			m.addTombstone(e)
			continue
		}
		exp, _ := reg.Get(names[0])
		m.mu.Lock()
		j := m.newJobLocked(e.ID, e.Spec, exp, names[0], exp.Grid())
		m.mu.Unlock()
		j.events.append(Event{Type: "state", State: JobQueued})
		m.wg.Add(1)
		go m.supervise(j)
	}
	return nil
}

// addTombstone registers a terminal journaled job: status and events
// answer for it, results are gone (the sweep's bytes live in the
// store; re-submit the spec to rematerialize them as a new job).
func (m *Manager) addTombstone(e journalEntry) {
	j := &job{
		id:     e.ID,
		spec:   e.Spec,
		state:  e.State,
		errMsg: e.Error,
		events: newEventLog(),
		points: make(map[int]struct{}),
	}
	j.events.append(Event{Type: "state", State: e.State, Error: e.Error})
	j.events.close()
	m.mu.Lock()
	m.jobs[e.ID] = j
	m.order = append(m.order, e.ID)
	m.mu.Unlock()
}
