package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"edcache/internal/edcached"
	"edcache/internal/sim"
	"edcache/internal/store"
)

// serviceMix is the service probe's job mix: replay-heavy single-grid
// experiments plus the Monte-Carlo reliability campaign.
var serviceMix = []string{"hier-epi", "func-corr", "corpus-miss", "headline", "reliability"}

const externalWorker = "ext"

// service is one edcached deployment: the server and one in-process
// shard worker in this process, one external `edcached -worker`
// process, and a store on the checkout's filesystem.
type service struct {
	srv       *edcached.Server
	hs        *http.Server
	served    chan error
	base      string
	worker    *exec.Cmd
	exited    chan error
	claimed   chan struct{}
	claimOnce sync.Once
}

// startService brings a deployment up and returns once the external
// worker has made its first claim. On failure it leaves nothing running.
func startService(ctx context.Context, c *config, dir string, log *spanLog) (_ *service, err error) {
	storeDir := filepath.Join(dir, "store")
	st, err := store.OpenFS(log.wrapFS(store.OSFS{}), storeDir)
	if err != nil {
		return nil, fmt.Errorf("open store: %w", err)
	}
	srv, err := edcached.NewServer(edcached.Config{
		Store:    st,
		StoreDir: storeDir,
		JobsDir:  filepath.Join(dir, "jobs"),
		Registry: log.wrapRegistryFunc(edcached.DefaultRegistry),
		Workers:  procs - 1, // the external worker is the other one
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	s := &service{srv: srv, served: make(chan error, 1), exited: make(chan error, 1),
		claimed: make(chan struct{}), base: "http://" + ln.Addr().String()}
	s.hs = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path == "/shards/claim" {
			s.claimOnce.Do(func() { close(s.claimed) })
		}
		srv.ServeHTTP(w, req)
	})}
	go func() { s.served <- s.hs.Serve(ln) }()
	defer func() {
		if err != nil {
			_ = s.stop() // the start-up error is the one to report
		}
	}()
	if err := s.startWorker(ctx, c, dir); err != nil {
		return nil, err
	}
	return s, nil
}

// startWorker launches the external worker and waits for its first
// claim.
func (s *service) startWorker(ctx context.Context, c *config, dir string) error {
	logf, err := os.Create(filepath.Join(dir, "worker.log"))
	if err != nil {
		return err
	}
	defer logf.Close()
	s.worker = exec.Command(filepath.Join(c.bin, "edcached"), "-worker", "-server", s.base,
		"-name", externalWorker, "-poll", c.size.Poll.String())
	s.worker.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(procs))
	s.worker.Stdout, s.worker.Stderr = logf, logf
	if err := s.worker.Start(); err != nil {
		s.worker = nil
		return fmt.Errorf("start edcached -worker: %w", err)
	}
	go func() { s.exited <- s.worker.Wait() }()
	select {
	case <-s.claimed:
		return nil
	case err := <-s.exited:
		s.exited <- err // for stop
		return fmt.Errorf("edcached -worker exited before claiming: %v", err)
	case <-time.After(30 * time.Second):
		return errors.New("edcached -worker made no claim within 30s")
	case <-ctx.Done():
		return ctx.Err()
	}
}

// stop ends the worker process and drains the server, waiting for both.
func (s *service) stop() error {
	var errs []error
	if s.worker != nil {
		_ = s.worker.Process.Signal(syscall.SIGTERM) // already gone is fine: Wait reports it
		select {
		case <-s.exited:
		case <-time.After(10 * time.Second):
			_ = s.worker.Process.Kill()
			<-s.exited
			errs = append(errs, errors.New("edcached -worker ignored SIGTERM"))
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	errs = append(errs, s.srv.Drain(ctx))
	if err := s.hs.Shutdown(ctx); err != nil {
		s.hs.Close()
	}
	if err := <-s.served; !errors.Is(err, http.ErrServerClosed) {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}

// jobRun is one client job: submit, stream every event, fetch the
// JSON result.
type jobRun struct {
	spec     edcached.JobSpec
	id       string
	points   int
	refused  bool
	body     []byte
	err      error
	events   int
	expired  int
	extLease int
	shardBy  map[int]string // shard → worker that completed it
	extPts   int            // points of the shards the external worker completed (traced)

	start, accepted, firstLease, lastDone, doneAt, resultAt, end time.Time
}

// runJob performs one job. Only traced runs record spans and ask for
// the job's shard table after the job's timing ends.
func runJob(ctx context.Context, hc *http.Client, base string, spec edcached.JobSpec, log *spanLog) jobRun {
	j := jobRun{spec: spec, shardBy: map[int]string{}}
	j.start = time.Now()
	j.err = j.do(ctx, hc, base)
	j.end = time.Now()
	if log != nil && log.on.Load() {
		id := log.id()
		log.record(id, 0, "job:"+spec.Experiment, j.id, j.start, j.end, int64(len(j.body)))
		log.record(log.id(), id, "http.submit", j.id, j.start, j.accepted, 0)
		log.record(log.id(), id, "http.events", j.id, j.accepted, j.resultAt, 0)
		log.record(log.id(), id, "http.result", j.id, j.resultAt, j.end, int64(len(j.body)))
		if j.err == nil {
			j.extPts, j.err = shardPoints(ctx, hc, base, j.id, j.shardBy)
		}
	}
	return j
}

func (j *jobRun) do(ctx context.Context, hc *http.Client, base string) error {
	body, err := json.Marshal(j.spec)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/jobs", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := hc.Do(req)
	if err != nil {
		return fmt.Errorf("submit: %w", err)
	}
	var st edcached.JobStatus
	decErr := json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	j.accepted = time.Now()
	switch {
	case resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable:
		j.refused = true
		return fmt.Errorf("submit %s: refused with %d", j.spec.Experiment, resp.StatusCode)
	case resp.StatusCode/100 != 2:
		return fmt.Errorf("submit %s: status %d", j.spec.Experiment, resp.StatusCode)
	case decErr != nil:
		return fmt.Errorf("submit: %w", decErr)
	}
	j.id, j.points = st.ID, st.TotalPoints

	resp, err = get(ctx, hc, base+"/jobs/"+j.id+"/events")
	if err != nil {
		return err
	}
	state, err := j.readEvents(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if state != edcached.JobDone {
		return fmt.Errorf("job %s (%s seed %d) ended %s", j.id, j.spec.Experiment, j.spec.Seed, state)
	}

	j.resultAt = time.Now()
	resp, err = get(ctx, hc, base+"/jobs/"+j.id+"/result?format=json")
	if err != nil {
		return err
	}
	j.body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	return err
}

// readEvents consumes the NDJSON stream to its end, stamping each
// event as it arrives, and returns the job's final state.
func (j *jobRun) readEvents(r io.Reader) (edcached.JobState, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	var state edcached.JobState
	for sc.Scan() {
		now := time.Now()
		var ev edcached.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return "", fmt.Errorf("event stream: %w", err)
		}
		j.events++
		switch {
		case ev.Type == "shard" && ev.What == "leased":
			if j.firstLease.IsZero() {
				j.firstLease = now
			}
			if ev.Worker == externalWorker {
				j.extLease++
			}
		case ev.Type == "shard" && ev.What == "done":
			j.lastDone = now
			j.shardBy[ev.Shard] = ev.Worker
		case ev.Type == "shard" && ev.What == "expired":
			j.expired++
		case ev.Type == "state":
			state = ev.State
			if state.Terminal() {
				j.doneAt = now
			}
		}
	}
	return state, sc.Err()
}

// shardPoints returns how many of the job's points were in shards the
// external worker completed.
func shardPoints(ctx context.Context, hc *http.Client, base, id string, shardBy map[int]string) (int, error) {
	resp, err := get(ctx, hc, base+"/jobs/"+id)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var st edcached.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return 0, fmt.Errorf("job status: %w", err)
	}
	n := 0
	for _, sh := range st.Shards {
		if shardBy[sh.Shard] == externalWorker {
			n += sh.Tasks
		}
	}
	return n, nil
}

func get(ctx context.Context, hc *http.Client, url string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return nil, fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return resp, nil
}

// closedLoop runs specs through `clients` clients, each submitting its
// next job only after the previous one's result arrived.
func closedLoop(ctx context.Context, hc *http.Client, base string, specs []edcached.JobSpec, clients int, log *spanLog) []jobRun {
	out := make([]jobRun, len(specs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(specs) {
					return
				}
				out[i] = runJob(ctx, hc, base, specs[i], log)
			}
		}()
	}
	wg.Wait()
	return out
}

// reference renders one job spec the way cmd/experiments does, through
// the same registry edcached uses; with a cache it also fills the store.
func reference(ctx context.Context, spec edcached.JobSpec, cache sim.ResultCache) ([]byte, error) {
	reg := edcached.DefaultRegistry(spec.Options)
	runner := sim.Runner{Workers: procs, Seed: spec.Seed, Cache: cache}
	res, err := runner.RunAllContext(ctx, reg, []string{spec.Experiment})
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	sink, err := sim.NewSink("json", &buf)
	if err != nil {
		return nil, err
	}
	if err := sink.Write(res); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// serviceLayers measures the store and edcached layers for a traced
// run: one edcached deployment serves one cold pass of the job mix —
// every job a fresh seed, so every point misses the store — and then
// the same jobs again, every point a store hit. Every job's result is
// checked against the engine's rendering of its spec, and the first job
// of each experiment against the cmd/experiments binary.
func serviceLayers(ctx context.Context, c *config, r *report, log *spanLog) (err error) {
	sz := c.size
	opts := edcached.GridOptions{Instructions: sz.ServiceInstructions, Trials: sz.ServiceTrials, Workers: 1}
	specs := make([]edcached.JobSpec, sz.ServiceJobs)
	for i := range specs {
		specs[i] = edcached.JobSpec{Experiment: serviceMix[i%len(serviceMix)], Seed: c.seed*1_000_000 + int64(i), Options: opts}
	}
	r.note("service", fmt.Sprintf("closed loop of %d clients, %d cold then the same %d warm jobs of %v, instructions=%d trials=%d",
		procs, len(specs), len(specs), serviceMix, sz.ServiceInstructions, sz.ServiceTrials))
	r.note("service.workers", fmt.Sprintf("%d in-process + 1 external (edcached -worker -poll %s)", procs-1, sz.Poll))
	r.note("store.fs", fsType(c.work))

	svc, err := startService(ctx, c, filepath.Join(c.work, "svc"), log)
	if err != nil {
		return err
	}
	defer func() {
		if serr := svc.stop(); err == nil {
			err = serr
		}
	}()
	hc := &http.Client{Transport: &http.Transport{MaxConnsPerHost: procs, MaxIdleConnsPerHost: procs}}
	defer hc.CloseIdleConnections()
	mark := log.mark()
	cold := closedLoop(ctx, hc, svc.base, specs, procs, log)
	warm := closedLoop(ctx, hc, svc.base, specs, procs, log)
	emitServiceLayer(r, cold, warm, log.since(mark))

	refs := map[int64][]byte{}
	cliChecked := map[string]bool{}
	for _, j := range append(cold, warm...) {
		r.op(j.err)
		if j.err != nil {
			continue
		}
		want, ok := refs[j.spec.Seed]
		if !ok {
			if want, err = reference(ctx, j.spec, nil); err != nil {
				return err
			}
			refs[j.spec.Seed] = want
		}
		if !bytes.Equal(j.body, want) {
			r.check(fmt.Errorf("job %s (%s seed %d): result differs from the engine's rendering", j.id, j.spec.Experiment, j.spec.Seed))
			continue
		}
		if !cliChecked[j.spec.Experiment] {
			cliChecked[j.spec.Experiment] = true
			out, err := runExperimentsCLI(ctx, c, []string{"-run", j.spec.Experiment, "-format", "json",
				"-seed", strconv.FormatInt(j.spec.Seed, 10), "-workers", "1",
				"-instructions", strconv.Itoa(sz.ServiceInstructions), "-trials", strconv.Itoa(sz.ServiceTrials)})
			if err != nil {
				return err
			}
			if !bytes.Equal(j.body, out) {
				r.check(fmt.Errorf("job %s (%s seed %d): result differs from cmd/experiments", j.id, j.spec.Experiment, j.spec.Seed))
			}
		}
	}
	return nil
}
