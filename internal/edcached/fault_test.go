package edcached

// The fault suite: every graceful-degradation claim the package makes,
// exercised against a live httptest server. The shared invariant is
// byte-identity — whatever crashes, expires, or fails mid-flight, a
// job that reaches "done" must serve exactly the bytes a solo
// single-process run produces. One job's bytes are also pinned to a
// committed golden, so a shift that moves the service and the solo run
// alike still fails.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"edcache/internal/sim"
	"edcache/internal/store"
	"edcache/internal/store/errfs"
)

// newServerAt is newTestServer over caller-owned directories, so a
// test can restart the service on the same store and journal.
func newServerAt(t *testing.T, storeDir, jobsDir string, mod func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	st, err := store.Open(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Store:            st,
		StoreDir:         storeDir,
		JobsDir:          jobsDir,
		Registry:         benchRegistry,
		Workers:          2,
		LeaseTTL:         time.Second,
		MaxShardAttempts: 10,
	}
	if mod != nil {
		mod(&cfg)
	}
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

// TestWorkerCrashMidShardReleasedAndRecomputed is the headline fault:
// an external worker checkpoints part of its shard, then hangs (no
// heartbeat — a crash, a wedged host). Its lease expires, a healthy
// worker re-claims the shard, replays the crashed worker's checkpoints
// from the shared store, computes the rest, and the finished job is
// byte-identical to a solo run.
func TestWorkerCrashMidShardReleasedAndRecomputed(t *testing.T) {
	_, ts := newTestServer(t, func(c *Config) {
		c.Workers = 0
		c.LeaseTTL = 200 * time.Millisecond
		c.MaxShardAttempts = 100
	})
	spec := JobSpec{Experiment: "summed", Seed: 5, Options: GridOptions{Instructions: 8}, Shards: 2}

	// Worker A's registry computes tasks 0 and 1 normally (checkpointing
	// each), then wedges forever on task 2.
	gate := make(chan struct{})
	reached := make(chan struct{})
	var reachedOnce sync.Once
	crashRegistry := func(o GridOptions) *sim.Registry {
		inner, _ := benchRegistry(o).Get("summed")
		reg := sim.NewRegistry()
		reg.MustRegister(sim.Def{
			ExpName: "summed",
			GridFn:  inner.Grid,
			RunFn: func(tk sim.Task, rng *rand.Rand) (sim.Result, error) {
				if tk.ID == 2 {
					reachedOnce.Do(func() { close(reached) })
					<-gate
				}
				return inner.Run(tk, rng)
			},
		})
		return reg
	}
	ctxA, cancelA := context.WithCancel(context.Background())
	aDone := make(chan struct{})
	a := &Worker{Server: ts.URL, Name: "crash", Registry: crashRegistry, Poll: 10 * time.Millisecond}
	go func() {
		defer close(aDone)
		a.Run(ctxA)
	}()
	t.Cleanup(func() {
		cancelA()
		close(gate)
		<-aDone
	})

	st := submitJob(t, ts, spec)
	select {
	case <-reached: // tasks 0 and 1 are in the store; A is wedged on 2
	case <-time.After(20 * time.Second):
		t.Fatal("crash worker never reached its wedge point")
	}
	cancelA() // the "crash": heartbeats stop, the wedged goroutine stays

	startWorker(t, ts.URL, "healthy")
	final := waitTerminal(t, ts, st.ID)
	if final.State != JobDone {
		t.Fatalf("job ended %q: %s", final.State, final.Error)
	}
	if final.Shards[0].Attempts == 0 {
		t.Fatalf("crashed shard shows no expiry penalty: %+v", final.Shards)
	}

	_, body := getBody(t, ts.URL+"/jobs/"+st.ID+"/events")
	if !strings.Contains(string(body), `"what":"expired"`) {
		t.Fatalf("event stream never reported the lease expiry:\n%s", body)
	}
	_, result := getBody(t, ts.URL+"/jobs/"+st.ID+"/result?format=json")
	if want := soloBytes(t, spec.Options, spec.Seed, "summed", "json"); string(result) != want {
		t.Fatal("post-crash result differs from solo run")
	}
	checkGolden(t, "worker_crash_summed.json", result)
}

var update = flag.Bool("update", false, "rewrite testdata golden files from the current build")

// checkGolden compares got with testdata/name byte for byte; running
// the test with -update rewrites the file instead.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("result differs from %s:\n got  %s\n want %s", path, got, want)
	}
}

// TestLeaseChurnUnderConcurrentClaimants floods the lease protocol:
// claimers that grab shards and silently drop them race a real worker
// under a tiny TTL. Expiry keeps recycling the dropped leases and the
// job still completes byte-identically.
func TestLeaseChurnUnderConcurrentClaimants(t *testing.T) {
	_, ts := newTestServer(t, func(c *Config) {
		c.Workers = 0
		c.LeaseTTL = 50 * time.Millisecond
		c.MaxShardAttempts = 1000
	})
	spec := JobSpec{Experiment: "sweep", Seed: 11, Options: GridOptions{Instructions: 12}, Shards: 4}
	st := submitJob(t, ts, spec)

	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for round := 0; round < 5; round++ {
				postJSON(t, ts.URL+"/shards/claim", ClaimRequest{Worker: "dropper"})
				time.Sleep(20 * time.Millisecond)
			}
		}(c)
	}
	startWorker(t, ts.URL, "steady")
	wg.Wait()

	final := waitTerminal(t, ts, st.ID)
	if final.State != JobDone {
		t.Fatalf("job ended %q: %s", final.State, final.Error)
	}
	_, result := getBody(t, ts.URL+"/jobs/"+st.ID+"/result?format=json")
	if want := soloBytes(t, spec.Options, spec.Seed, "sweep", "json"); string(result) != want {
		t.Fatal("churned result differs from solo run")
	}
}

// TestStoreFaultsUnderLiveServer injects store failures beneath a
// serving daemon: a full disk (every checkpoint write ENOSPCs), then
// unreadable entries (every read EIOs). Both degrade — checkpoints are
// lost, hits become recomputes — and neither changes a single result
// byte or fails a job.
func TestStoreFaultsUnderLiveServer(t *testing.T) {
	var failWrites, failReads atomic.Bool
	fs := errfs.New(store.OSFS{}, func(_ int, s errfs.Step) *errfs.Fault {
		switch {
		case failWrites.Load() && (s.Op == errfs.OpWrite || s.Op == errfs.OpSync):
			return &errfs.Fault{Err: syscall.ENOSPC}
		case failReads.Load() && s.Op == errfs.OpRead:
			return &errfs.Fault{Err: syscall.EIO}
		}
		return nil
	})
	storeDir := t.TempDir()
	st, err := store.OpenFS(fs, storeDir)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, func(c *Config) {
		c.Store = st
		c.StoreDir = storeDir
	})
	spec := JobSpec{Experiment: "summed", Seed: 2, Options: GridOptions{Instructions: 10}, Shards: 2}
	want := soloBytes(t, spec.Options, spec.Seed, "summed", "json")

	// Phase 1: disk full. Every checkpoint write fails; the job is
	// oblivious.
	failWrites.Store(true)
	j1 := submitJob(t, ts, spec)
	final := waitTerminal(t, ts, j1.ID)
	if final.State != JobDone {
		t.Fatalf("ENOSPC job ended %q: %s", final.State, final.Error)
	}
	if final.Cache.PutErrors == 0 {
		t.Fatalf("ENOSPC run reports no failed checkpoints: %+v", final.Cache)
	}
	_, result := getBody(t, ts.URL+"/jobs/"+j1.ID+"/result?format=json")
	if string(result) != want {
		t.Fatal("ENOSPC result differs from solo run")
	}

	// Phase 2: disk heals for writes but reads fail; the would-be hits
	// become recomputes.
	failWrites.Store(false)
	j2 := submitJob(t, ts, spec)
	if final := waitTerminal(t, ts, j2.ID); final.State != JobDone {
		t.Fatalf("post-heal job ended %q: %s", final.State, final.Error)
	}
	failReads.Store(true)
	j3 := submitJob(t, ts, spec)
	final3 := waitTerminal(t, ts, j3.ID)
	failReads.Store(false)
	if final3.State != JobDone {
		t.Fatalf("EIO job ended %q: %s", final3.State, final3.Error)
	}
	if final3.Cache.Hits != 0 {
		t.Fatalf("EIO run somehow served hits: %+v", final3.Cache)
	}
	_, result3 := getBody(t, ts.URL+"/jobs/"+j3.ID+"/result?format=json")
	if string(result3) != want {
		t.Fatal("EIO result differs from solo run")
	}
}

// TestClientDisconnectMidStream kills an events client partway through
// a live stream: the server must release the subscription (no goroutine
// or subscriber leak) and keep running the job; a fresh client replays
// the full history to the terminal state.
func TestClientDisconnectMidStream(t *testing.T) {
	srv, ts := newTestServer(t, func(c *Config) { c.Workers = 1 })
	st := submitJob(t, ts, JobSpec{Experiment: "slowgrid", Seed: 4, Options: GridOptions{Instructions: 30}, Shards: 1})

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/jobs/"+st.ID+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(resp.Body)
	for i := 0; i < 2; i++ {
		if _, err := br.ReadString('\n'); err != nil {
			t.Fatalf("stream died early: %v", err)
		}
	}
	cancel() // client vanishes mid-stream
	resp.Body.Close()

	log, ok := srv.Manager().Events(st.ID)
	if !ok {
		t.Fatal("job lost its event log")
	}
	deadline := time.Now().Add(10 * time.Second)
	for log.subscribers() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d subscribers still registered after disconnect", log.subscribers())
		}
		time.Sleep(5 * time.Millisecond)
	}

	if final := waitTerminal(t, ts, st.ID); final.State != JobDone {
		t.Fatalf("job ended %q after client disconnect", final.State)
	}
	_, body := getBody(t, ts.URL+"/jobs/"+st.ID+"/events")
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	var last Event
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatal(err)
	}
	if last.Type != "state" || last.State != JobDone {
		t.Fatalf("replayed stream does not end done: %+v", last)
	}
}

// TestDrainRestartResumesByteIdentical is the SIGTERM story end to end:
// drain a server mid-job (in-flight work checkpoints and exits), start
// a new server over the same store and journal, and watch the job —
// same ID — resume from its checkpoints and finish byte-identical to a
// solo run.
func TestDrainRestartResumesByteIdentical(t *testing.T) {
	storeDir, jobsDir := t.TempDir(), t.TempDir()
	spec := JobSpec{Experiment: "slowgrid", Seed: 9, Options: GridOptions{Instructions: 24}, Shards: 4}

	srv1, ts1 := newServerAt(t, storeDir, jobsDir, func(c *Config) { c.Workers = 1 })
	st := submitJob(t, ts1, spec)

	// Let it make real progress before the kill.
	deadline := time.Now().Add(20 * time.Second)
	for {
		status, ok := srv1.Manager().Job(st.ID)
		if !ok {
			t.Fatal("job vanished")
		}
		if status.PointsDone >= 4 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job made no progress: %+v", status)
		}
		time.Sleep(5 * time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := srv1.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	// Drained: not terminal, journal still holds the spec, store holds
	// the checkpoints.
	status, _ := srv1.Manager().Job(st.ID)
	if status.State.Terminal() {
		t.Fatalf("drain terminalized the job: %q", status.State)
	}
	ts1.Close()

	srv2, ts2 := newServerAt(t, storeDir, jobsDir, func(c *Config) { c.Workers = 2 })
	final := waitTerminal(t, ts2, st.ID)
	if final.State != JobDone {
		t.Fatalf("resumed job ended %q: %s", final.State, final.Error)
	}
	if final.Cache.Hits == 0 {
		t.Fatalf("resumed job replayed nothing from the store: %+v", final.Cache)
	}
	_, result := getBody(t, ts2.URL+"/jobs/"+st.ID+"/result?format=json")
	if want := soloBytes(t, spec.Options, spec.Seed, "slowgrid", "json"); string(result) != want {
		t.Fatal("resumed result differs from solo run")
	}
	// The restarted server is a full citizen: new jobs still run.
	next := submitJob(t, ts2, JobSpec{Experiment: "sweep", Options: GridOptions{Instructions: 4}})
	if got := waitTerminal(t, ts2, next.ID); got.State != JobDone {
		t.Fatalf("post-restart job ended %q", got.State)
	}
	_ = srv2
}

// TestRestartTombstonesTerminalJobs: a journaled terminal job answers
// status and events after restart but is never re-run.
func TestRestartTombstonesTerminalJobs(t *testing.T) {
	storeDir, jobsDir := t.TempDir(), t.TempDir()
	srv1, ts1 := newServerAt(t, storeDir, jobsDir, nil)
	st := submitJob(t, ts1, JobSpec{Experiment: "sweep", Options: GridOptions{Instructions: 4}})
	if final := waitTerminal(t, ts1, st.ID); final.State != JobDone {
		t.Fatalf("job ended %q", final.State)
	}
	if err := srv1.Close(); err != nil {
		t.Fatal(err)
	}
	ts1.Close()

	_, ts2 := newServerAt(t, storeDir, jobsDir, nil)
	resp, body := getBody(t, ts2.URL+"/jobs/"+st.ID)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("tombstone status: %d", resp.StatusCode)
	}
	var got JobStatus
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if got.State != JobDone {
		t.Fatalf("tombstone state %q, want done", got.State)
	}
	// The result set itself lived in server 1's memory; the tombstone
	// answers 409 and the client re-submits (the store makes that replay
	// cheap).
	if resp, _ := getBody(t, ts2.URL+"/jobs/"+st.ID+"/result"); resp.StatusCode != http.StatusConflict {
		t.Fatalf("tombstone result: %d, want 409", resp.StatusCode)
	}
	_, evBody := getBody(t, ts2.URL+"/jobs/"+st.ID+"/events")
	if !strings.Contains(string(evBody), `"state":"done"`) {
		t.Fatalf("tombstone events missing terminal state: %s", evBody)
	}
}

// TestRestartRefusesUnresolvableJobs: a journaled live job whose spec
// no longer selects exactly one experiment under the restarted
// server's registry is not resumed. It is tombstoned failed, with the
// resolve error Submit would give, both for an experiment the new
// registry lacks and for a selector that now selects two.
func TestRestartRefusesUnresolvableJobs(t *testing.T) {
	only := func(names ...string) RegistryFunc {
		return func(o GridOptions) *sim.Registry {
			full, reg := benchRegistry(o), sim.NewRegistry()
			for _, n := range names {
				e, _ := full.Get(n)
				reg.MustRegister(e)
			}
			return reg
		}
	}
	for _, tc := range []struct {
		name, experiment string
		before, after    RegistryFunc
		want             string
	}{
		{"experiment gone", "slowgrid", benchRegistry, only("sweep"), `unknown experiment "slowgrid"`},
		{"selector now selects two", "all", only("sweep"), only("sweep", "summed"), `"all" selects 2 experiments; a job is one grid`},
	} {
		storeDir, jobsDir := t.TempDir(), t.TempDir()
		// No in-process workers: the job stays queued, and the drain
		// leaves it live in the journal.
		srv1, ts1 := newServerAt(t, storeDir, jobsDir, func(c *Config) { c.Registry, c.Workers = tc.before, 0 })
		st := submitJob(t, ts1, JobSpec{Experiment: tc.experiment, Options: GridOptions{Instructions: 4}})
		if err := srv1.Close(); err != nil {
			t.Fatal(err)
		}
		ts1.Close()

		srv2, _ := newServerAt(t, storeDir, jobsDir, func(c *Config) { c.Registry, c.Workers = tc.after, 0 })
		got, ok := srv2.Manager().Job(st.ID)
		if !ok {
			t.Fatalf("%s: journaled job %s vanished", tc.name, st.ID)
		}
		if got.State != JobFailed || !strings.Contains(got.Error, "not resumable after restart: ") ||
			!strings.Contains(got.Error, tc.want) || strings.Contains(got.Error, "<nil>") {
			t.Errorf("%s: restarted job %q: %q; want failed, not resumable: %s", tc.name, got.State, got.Error, tc.want)
		}
	}
}

// TestJournalSyncsBeforeRename records the journal's filesystem steps
// over one job's life and requires the store's write order for every
// journal file: create the temp file, write it, fsync it, close it,
// rename it over the journal file, fsync the directory. A rename before
// the temp file's fsync can leave an empty or partial journal after a
// crash, and replay would drop the job.
func TestJournalSyncsBeforeRename(t *testing.T) {
	rec := errfs.New(store.OSFS{}, nil)
	var jobsDir string
	_, ts := newTestServer(t, func(c *Config) {
		c.fs = rec
		jobsDir = c.JobsDir
	})
	st := submitJob(t, ts, JobSpec{Experiment: "summed", Seed: 3, Options: GridOptions{Instructions: 10}, Shards: 2})
	if final := waitTerminal(t, ts, st.ID); final.State != JobDone {
		t.Fatalf("job ended %q: %s", final.State, final.Error)
	}
	path := filepath.Join(jobsDir, st.ID+".json")
	tmp := path + ".tmp"
	steps := func() []errfs.Op {
		var ops []errfs.Op
		for _, s := range rec.Steps() {
			switch s.Path {
			case tmp, tmp + " -> " + path, jobsDir:
				ops = append(ops, s.Op)
			}
		}
		return ops
	}
	once := []errfs.Op{errfs.OpCreate, errfs.OpWrite, errfs.OpSync, errfs.OpClose, errfs.OpRename, errfs.OpSyncDir}
	// One journal write when the job is queued, one when it is done.
	// The status turns done before the second write ends, so wait for
	// its directory sync.
	want := append(slices.Clone(once), once...)
	got := steps()
	for deadline := time.Now().Add(5 * time.Second); len(got) < len(want) && time.Now().Before(deadline); got = steps() {
		time.Sleep(5 * time.Millisecond)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("journal steps %v, want %v", got, want)
	}
}
