package edcached

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"edcache/internal/experiments"
	"edcache/internal/sim"
	"edcache/internal/store"
)

// TestMain silences the package's warning sink: the fault suite
// deliberately exercises the noisy paths (crashed workers, rejected
// completions) and the warnings would drown real test output.
func TestMain(m *testing.M) {
	logf = func(string, ...any) {}
	os.Exit(m.Run())
}

// benchRegistry is the test suite's experiment registry: cheap,
// deterministic grids whose size rides on Options.Instructions.
func benchRegistry(o GridOptions) *sim.Registry {
	n := o.Instructions
	if n <= 0 {
		n = 12
	}
	grid := func() []sim.Task {
		tasks := make([]sim.Task, n)
		for i := range tasks {
			tasks[i] = sim.Task{Label: fmt.Sprintf("pt-%02d", i), Params: sim.P("i", fmt.Sprint(i))}
		}
		return tasks
	}
	run := func(t sim.Task, rng *rand.Rand) (sim.Result, error) {
		return sim.Result{
			Metrics: []sim.Metric{
				sim.Num("draw", float64(rng.Int63()%100000)),
				sim.Fmt("half", float64(t.ID)/2, "%.2f"),
			},
		}, nil
	}
	sum := func(results []sim.Result) ([]sim.Result, error) {
		total := 0.0
		for _, r := range results {
			total += r.Metrics[0].Value
		}
		return append(results, sim.Result{Task: sim.Task{Label: "total"}, Metrics: []sim.Metric{sim.Num("sum", total)}}), nil
	}
	reg := sim.NewRegistry()
	reg.MustRegister(sim.Def{ExpName: "sweep", Desc: "plain grid", GridFn: grid, RunFn: run})
	reg.MustRegister(sim.Def{ExpName: "summed", Desc: "grid with Finish", GridFn: grid, RunFn: run, FinishFn: sum})
	reg.MustRegister(sim.Def{ExpName: "slowgrid", Desc: "slow grid", GridFn: grid,
		RunFn: func(t sim.Task, rng *rand.Rand) (sim.Result, error) {
			time.Sleep(3 * time.Millisecond)
			return run(t, rng)
		}})
	reg.MustRegister(sim.Def{ExpName: "finpanic", Desc: "Finish panics", GridFn: grid, RunFn: run,
		FinishFn: func([]sim.Result) ([]sim.Result, error) { panic("finish exploded") }})
	reg.MustRegister(sim.Def{ExpName: "gridpanic", Desc: "Grid panics",
		GridFn: func() []sim.Task { panic("grid exploded") },
		RunFn:  run})
	reg.MustRegister(sim.Def{ExpName: "taskpanic", Desc: "task 3 panics", GridFn: grid,
		RunFn: func(t sim.Task, rng *rand.Rand) (sim.Result, error) {
			if t.ID == 3 {
				panic("task 3 exploded")
			}
			return run(t, rng)
		}})
	reg.MustRegister(sim.Def{ExpName: "taskerr", Desc: "task 3 fails", GridFn: grid,
		RunFn: func(t sim.Task, rng *rand.Rand) (sim.Result, error) {
			if t.ID == 3 {
				return sim.Result{}, errors.New("task 3 refused")
			}
			return run(t, rng)
		}})
	return reg
}

// newTestServer stands up a Server over fresh store/jobs dirs; mod
// tweaks the config before construction. The HTTP front is an
// httptest.Server; cleanup drains.
func newTestServer(t testing.TB, mod func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	storeDir := t.TempDir()
	st, err := store.Open(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Store:            st,
		StoreDir:         storeDir,
		JobsDir:          t.TempDir(),
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

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func getBody(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// submitJob posts a spec and returns the accepted status.
func submitJob(t *testing.T, ts *httptest.Server, spec JobSpec) JobStatus {
	t.Helper()
	resp, body := postJSON(t, ts.URL+"/jobs", spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", resp.StatusCode, body)
	}
	var st JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	return st
}

// waitTerminal polls the job until it reaches a terminal state.
func waitTerminal(t *testing.T, ts *httptest.Server, id string) JobStatus {
	t.Helper()
	return waitTerminalWithin(t, ts, id, 30*time.Second)
}

// waitTerminalWithin is waitTerminal under the caller's bound.
func waitTerminalWithin(t *testing.T, ts *httptest.Server, id string, within time.Duration) JobStatus {
	t.Helper()
	deadline := time.Now().Add(within)
	for time.Now().Before(deadline) {
		if st := jobStatus(t, ts, id); st.State.Terminal() {
			return st
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("job never reached a terminal state")
	return JobStatus{}
}

// jobStatus fetches the job's status.
func jobStatus(t *testing.T, ts *httptest.Server, id string) JobStatus {
	t.Helper()
	resp, body := getBody(t, ts.URL+"/jobs/"+id)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status: %d: %s", resp.StatusCode, body)
	}
	var st JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	return st
}

// soloBytes renders the experiment the way cmd/experiments would: one
// Runner, one sink, no service — the byte-identity reference.
func soloBytes(t *testing.T, o GridOptions, seed int64, name, format string) string {
	t.Helper()
	e, ok := benchRegistry(o).Get(name)
	if !ok {
		t.Fatalf("no experiment %q", name)
	}
	res, err := sim.Runner{Workers: 3, Seed: seed}.Run(e)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	sink, err := sim.NewSink(format, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Write(res); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// startWorker runs an external Worker against the test server until
// cleanup.
func startWorker(t *testing.T, url, name string) context.CancelFunc {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	w := &Worker{Server: url, Name: name, Registry: benchRegistry, Poll: 10 * time.Millisecond}
	go func() {
		defer close(done)
		w.Run(ctx)
	}()
	t.Cleanup(func() {
		cancel()
		<-done
	})
	return cancel
}

func TestJobResultByteIdenticalToSoloRun(t *testing.T) {
	_, ts := newTestServer(t, nil)
	spec := JobSpec{Experiment: "summed", Seed: 3, Options: GridOptions{Instructions: 10}, Shards: 3}
	st := submitJob(t, ts, spec)
	if st.State != JobQueued && st.State != JobRunning {
		t.Fatalf("accepted job in state %q", st.State)
	}
	final := waitTerminal(t, ts, st.ID)
	if final.State != JobDone {
		t.Fatalf("job ended %q: %s", final.State, final.Error)
	}
	if final.PointsDone != 10 || final.TotalPoints != 10 {
		t.Fatalf("points %d/%d", final.PointsDone, final.TotalPoints)
	}
	for _, format := range []string{"text", "json", "csv"} {
		resp, body := getBody(t, ts.URL+"/jobs/"+st.ID+"/result?format="+format)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s result: %d: %s", format, resp.StatusCode, body)
		}
		if want := soloBytes(t, spec.Options, spec.Seed, "summed", format); string(body) != want {
			t.Fatalf("%s result differs from solo run:\n got: %q\nwant: %q", format, body, want)
		}
	}
}

func TestSubmitRejectsUnknownAndAmbiguous(t *testing.T) {
	_, ts := newTestServer(t, nil)
	for _, name := range []string{"nonsense", "s" /* sweep|summed|slowgrid */, ""} {
		resp, body := postJSON(t, ts.URL+"/jobs", JobSpec{Experiment: name})
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("experiment %q: status %d: %s", name, resp.StatusCode, body)
		}
	}
}

func TestQueueOverflowAnswers429WithRetryAfter(t *testing.T) {
	// No workers: submitted jobs stay live, so the bound fills up.
	_, ts := newTestServer(t, func(c *Config) { c.Workers = 0; c.QueueLimit = 2 })
	for i := 0; i < 2; i++ {
		submitJob(t, ts, JobSpec{Experiment: "sweep", Options: GridOptions{Instructions: 4}})
	}
	resp, body := postJSON(t, ts.URL+"/jobs", JobSpec{Experiment: "sweep", Options: GridOptions{Instructions: 4}})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-limit submit: %d: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if !strings.Contains(string(body), "queue full") {
		t.Fatalf("unhelpful 429 body: %s", body)
	}
}

func TestCancelEndpointAndResultConflict(t *testing.T) {
	_, ts := newTestServer(t, func(c *Config) { c.Workers = 0 })
	st := submitJob(t, ts, JobSpec{Experiment: "sweep", Options: GridOptions{Instructions: 4}})

	// Result before done: 409 with the state in the message.
	resp, body := getBody(t, ts.URL+"/jobs/"+st.ID+"/result")
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("early result: %d: %s", resp.StatusCode, body)
	}

	resp, _ = postJSON(t, ts.URL+"/jobs/"+st.ID+"/cancel", struct{}{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: %d", resp.StatusCode)
	}
	final := waitTerminal(t, ts, st.ID)
	if final.State != JobCancelled {
		t.Fatalf("state after cancel: %q", final.State)
	}
	// Result of a cancelled job stays 409.
	if resp, _ := getBody(t, ts.URL+"/jobs/"+st.ID+"/result"); resp.StatusCode != http.StatusConflict {
		t.Fatalf("cancelled result: %d", resp.StatusCode)
	}
	// Unknown job: 404 everywhere.
	if resp, _ := getBody(t, ts.URL+"/jobs/zzz"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job status: %d", resp.StatusCode)
	}
}

func TestEventsStreamReplayAndFromOffset(t *testing.T) {
	_, ts := newTestServer(t, nil)
	st := submitJob(t, ts, JobSpec{Experiment: "sweep", Seed: 1, Options: GridOptions{Instructions: 6}, Shards: 2})
	waitTerminal(t, ts, st.ID)

	// A full replay of a finished job ends on its own (terminal log).
	resp, body := getBody(t, ts.URL+"/jobs/"+st.ID+"/events")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events: %d", resp.StatusCode)
	}
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	var events []Event
	for _, ln := range lines {
		var e Event
		if err := json.Unmarshal([]byte(ln), &e); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", ln, err)
		}
		events = append(events, e)
	}
	if events[0].Type != "state" || events[0].State != JobQueued {
		t.Fatalf("stream does not start at queued: %+v", events[0])
	}
	last := events[len(events)-1]
	if last.Type != "state" || last.State != JobDone {
		t.Fatalf("stream does not end done: %+v", last)
	}
	points := 0
	for i, e := range events {
		if e.Seq != i {
			t.Fatalf("event %d has seq %d", i, e.Seq)
		}
		if e.Type == "point" {
			points++
		}
	}
	if points != 6 {
		t.Fatalf("%d point events for a 6-point grid", points)
	}

	// ?from resumes mid-log.
	_, tail := getBody(t, ts.URL+"/jobs/"+st.ID+"/events?from=2")
	var first Event
	if err := json.Unmarshal([]byte(strings.SplitN(strings.TrimSpace(string(tail)), "\n", 2)[0]), &first); err != nil {
		t.Fatal(err)
	}
	if first.Seq != 2 {
		t.Fatalf("from=2 started at seq %d", first.Seq)
	}
}

func TestFinishPanicQuarantinesJobNotServer(t *testing.T) {
	_, ts := newTestServer(t, nil)
	st := submitJob(t, ts, JobSpec{Experiment: "finpanic", Options: GridOptions{Instructions: 4}})
	final := waitTerminal(t, ts, st.ID)
	if final.State != JobQuarantined {
		t.Fatalf("state after Finish panic: %q (%s)", final.State, final.Error)
	}
	if !strings.Contains(final.Error, "finish hook panicked") {
		t.Fatalf("quarantine error unhelpful: %q", final.Error)
	}
	// The server — and new jobs — are unaffected.
	if resp, _ := getBody(t, ts.URL+"/healthz"); resp.StatusCode != http.StatusOK {
		t.Fatal("server unhealthy after a quarantine")
	}
	next := submitJob(t, ts, JobSpec{Experiment: "sweep", Options: GridOptions{Instructions: 4}})
	if got := waitTerminal(t, ts, next.ID); got.State != JobDone {
		t.Fatalf("follow-up job ended %q", got.State)
	}
}

func TestGridPanicAnswers500ServerSurvives(t *testing.T) {
	_, ts := newTestServer(t, nil)
	resp, body := postJSON(t, ts.URL+"/jobs", JobSpec{Experiment: "gridpanic"})
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("grid panic: %d: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "internal error") {
		t.Fatalf("500 body: %s", body)
	}
	if resp, _ := getBody(t, ts.URL+"/healthz"); resp.StatusCode != http.StatusOK {
		t.Fatal("server died with the panicking handler")
	}
}

func TestStorezReportsStoreAndLoad(t *testing.T) {
	srv, ts := newTestServer(t, nil)
	st := submitJob(t, ts, JobSpec{Experiment: "sweep", Options: GridOptions{Instructions: 5}})
	waitTerminal(t, ts, st.ID)
	resp, body := getBody(t, ts.URL+"/storez")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("storez: %d", resp.StatusCode)
	}
	var ss StoreStatus
	if err := json.Unmarshal(body, &ss); err != nil {
		t.Fatal(err)
	}
	if ss.Dir != srv.cfg.StoreDir || ss.Jobs != 1 || ss.Draining {
		t.Fatalf("storez: %+v", ss)
	}
}

func TestExternalWorkerRunsJobToByteIdentity(t *testing.T) {
	_, ts := newTestServer(t, func(c *Config) { c.Workers = 0 })
	startWorker(t, ts.URL, "ext-1")
	spec := JobSpec{Experiment: "summed", Seed: 7, Options: GridOptions{Instructions: 9}, Shards: 3}
	st := submitJob(t, ts, spec)
	final := waitTerminal(t, ts, st.ID)
	if final.State != JobDone {
		t.Fatalf("job ended %q: %s", final.State, final.Error)
	}
	_, body := getBody(t, ts.URL+"/jobs/"+st.ID+"/result?format=json")
	if want := soloBytes(t, spec.Options, spec.Seed, "summed", "json"); string(body) != want {
		t.Fatal("external-worker result differs from solo run")
	}
	// Every shard went through the external claim path.
	for _, sh := range final.Shards {
		if sh.State != shardDone {
			t.Fatalf("shard %d not done: %+v", sh.Shard, sh)
		}
	}
}

func TestReadyzFlipsDuringDrainAndSubmitRefused(t *testing.T) {
	srv, ts := newTestServer(t, func(c *Config) { c.Workers = 1 })
	if resp, _ := getBody(t, ts.URL+"/readyz"); resp.StatusCode != http.StatusOK {
		t.Fatal("fresh server not ready")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if resp, _ := getBody(t, ts.URL+"/readyz"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatal("draining server still ready")
	}
	if resp, _ := getBody(t, ts.URL+"/healthz"); resp.StatusCode != http.StatusOK {
		t.Fatal("draining server not live")
	}
	resp, _ := postJSON(t, ts.URL+"/jobs", JobSpec{Experiment: "sweep"})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit during drain: %d", resp.StatusCode)
	}
}

func TestConcurrentSubmissionsAllComplete(t *testing.T) {
	_, ts := newTestServer(t, func(c *Config) { c.Workers = 4; c.QueueLimit = 8 })
	var wg sync.WaitGroup
	ids := make([]string, 4)
	for i := range ids {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st := submitJob(t, ts, JobSpec{Experiment: "sweep", Seed: int64(i), Options: GridOptions{Instructions: 6}})
			ids[i] = st.ID
		}(i)
	}
	wg.Wait()
	for _, id := range ids {
		if final := waitTerminal(t, ts, id); final.State != JobDone {
			t.Fatalf("job %s ended %q: %s", id, final.State, final.Error)
		}
	}
}

// TestDefaultScopeIsTheCLIScope pins one option set's store scope to
// literal strings, through the daemon's scope and through the
// experiments.Options.Scope that cmd/experiments -store keys with: a
// drift in either splits the store the CLI and the daemon share.
func TestDefaultScopeIsTheCLIScope(t *testing.T) {
	want := []string{
		store.ModuleVersion(),
		"instructions=2000 trials=40 traces= l2=128x8,512x8 l2lat=6",
		"seed=3",
	}
	if got := scope(GridOptions{Instructions: 2000, Trials: 40, Workers: 7}, 3); !slices.Equal(got, want) {
		t.Errorf("scope = %q, want %q", got, want)
	}
	if got := (experiments.Options{Instructions: 2000, Trials: 40}).Scope(3); !slices.Equal(got, want) {
		t.Errorf("experiments.Options.Scope = %q, want %q", got, want)
	}
}
