package edcached

// The settle contract: in-process and external workers run a shard with
// one executor and report how it ended to one policy. A panic
// quarantines the job and a task error charges an attempt at once, on
// both paths, instead of an external worker's lease being left to
// expire. The lease TTL here is a minute, so any test that waits on
// expiry fails its few-second bound.

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"edcache/internal/sim"
	"edcache/internal/store"
)

// settlePaths runs fn once against a server computing with in-process
// workers and once against one whose only worker is external.
func settlePaths(t *testing.T, mod func(*Config), fn func(t *testing.T, srv *Server, ts *httptest.Server)) {
	for _, path := range []string{"in-process", "external"} {
		t.Run(path, func(t *testing.T) {
			srv, ts := newTestServer(t, func(c *Config) {
				c.LeaseTTL = time.Minute
				if path == "external" {
					c.Workers = 0
				}
				if mod != nil {
					mod(c)
				}
			})
			if path == "external" {
				startWorker(t, ts.URL, "ext")
			}
			fn(t, srv, ts)
		})
	}
}

// shardEvents counts the job's shard events so far by what happened.
func shardEvents(t *testing.T, srv *Server, id string) map[string]int {
	t.Helper()
	log, ok := srv.Manager().Events(id)
	if !ok {
		t.Fatalf("no job %s", id)
	}
	events, _ := log.since(0)
	n := make(map[string]int)
	for _, e := range events {
		if e.Type == "shard" {
			n[e.What]++
		}
	}
	return n
}

func TestTaskPanicQuarantinesOnBothPaths(t *testing.T) {
	settlePaths(t, nil, func(t *testing.T, srv *Server, ts *httptest.Server) {
		st := submitJob(t, ts, JobSpec{Experiment: "taskpanic", Options: GridOptions{Instructions: 8}, Shards: 2})
		final := waitTerminalWithin(t, ts, st.ID, 5*time.Second)
		if final.State != JobQuarantined || !strings.Contains(final.Error, "task 3 exploded") {
			t.Fatalf("job ended %q: %s", final.State, final.Error)
		}
		if n := shardEvents(t, srv, st.ID); n["expired"] != 0 {
			t.Fatalf("a reported panic waited on lease expiry: %v", n)
		}
	})
}

func TestTaskErrorFailsAfterMaxAttemptsOnBothPaths(t *testing.T) {
	const attempts = 3
	settlePaths(t, func(c *Config) { c.MaxShardAttempts = attempts }, func(t *testing.T, srv *Server, ts *httptest.Server) {
		st := submitJob(t, ts, JobSpec{Experiment: "taskerr", Options: GridOptions{Instructions: 8}, Shards: 2})
		final := waitTerminalWithin(t, ts, st.ID, 10*time.Second)
		if final.State != JobFailed || !strings.Contains(final.Error, "task 3 refused") {
			t.Fatalf("job ended %q: %s", final.State, final.Error)
		}
		if final.Shards[0].Attempts != attempts {
			t.Fatalf("failing shard charged %d attempts, want %d", final.Shards[0].Attempts, attempts)
		}
		if n := shardEvents(t, srv, st.ID); n["failed"] != attempts || n["expired"] != 0 {
			t.Fatalf("shard events %v, want %d failed and none expired", n, attempts)
		}
	})
}

func TestStaleGenerationFailChargesNothing(t *testing.T) {
	clk := newFakeClock()
	tb := newShardTable(4, 1, time.Second, 5)
	tb.now = clk.now

	idx, stale, _, _ := tb.claim("slow")
	clk.advance(2 * time.Second)
	tb.expireDue() // charges the expiry's one attempt
	if tb.fail(idx, stale, true) {
		t.Fatal("fail released a pending shard")
	}
	_, gen, _, _ := tb.claim("fast")
	if tb.fail(idx, stale, true) {
		t.Fatal("fail under a stale generation released the new holder's lease")
	}
	if st := tb.statuses()[idx]; st.State != shardLeased || st.Owner != "fast" || st.Attempts != 1 {
		t.Fatalf("stale fail changed the shard: %+v", st)
	}
	if !tb.fail(idx, gen, true) {
		t.Fatal("the current holder's fail was refused")
	}
	if st := tb.statuses()[idx]; st.State != shardPending || st.Attempts != 2 {
		t.Fatalf("current holder's fail: %+v", st)
	}
}

// claimShard leases a shard over HTTP as worker.
func claimShard(t *testing.T, ts *httptest.Server, worker string) ClaimResponse {
	t.Helper()
	resp, body := postJSON(t, ts.URL+"/shards/claim", ClaimRequest{Worker: worker})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("claim as %s: status %d: %s", worker, resp.StatusCode, body)
	}
	var cl ClaimResponse
	if err := json.Unmarshal(body, &cl); err != nil {
		t.Fatal(err)
	}
	return cl
}

// TestStaleHolderPanicReportLeavesJobRunning: a holder whose lease
// expired and was re-issued reports a panic. The report is answered but
// changes nothing — the new holder runs the same deterministic tasks
// and reports for itself — while the current holder's report
// quarantines the job.
func TestStaleHolderPanicReportLeavesJobRunning(t *testing.T) {
	clk := newFakeClock()
	srv, ts := newTestServer(t, func(c *Config) {
		c.Workers = 0
		c.LeaseTTL = time.Minute
		c.now = clk.now
	})
	st := submitJob(t, ts, JobSpec{Experiment: "taskpanic", Options: GridOptions{Instructions: 8}, Shards: 1})
	stale := claimShard(t, ts, "stale")
	clk.advance(2 * time.Minute)
	j, _ := srv.Manager().lookup(st.ID)
	j.table.expireDue() // the sweeper's ticker is real time; sweep by hand
	fresh := claimShard(t, ts, "fresh")
	if fresh.Gen == stale.Gen {
		t.Fatalf("re-issued lease kept generation %d", fresh.Gen)
	}

	report := func(cl ClaimResponse, worker string) {
		t.Helper()
		rep := ShardReport{ShardRef: ShardRef{Worker: worker, Job: cl.Job, Shard: cl.Shard, Gen: cl.Gen}, Panic: "task 3 exploded"}
		if resp, body := postJSON(t, ts.URL+"/shards/complete", rep); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s panic report: status %d: %s", worker, resp.StatusCode, body)
		}
	}
	report(stale, "stale")
	got := jobStatus(t, ts, st.ID)
	if got.State != JobRunning || got.Shards[0].State != shardLeased || got.Shards[0].Owner != "fresh" || got.Shards[0].Attempts != 1 {
		t.Fatalf("stale panic report changed the job: %q %+v", got.State, got.Shards)
	}
	report(fresh, "fresh")
	if got := jobStatus(t, ts, st.ID); got.State != JobQuarantined {
		t.Fatalf("current holder's panic report: job %q", got.State)
	}
}

// TestBareShardRefCompletesAsFinishedRun sends /shards/complete the
// body workers sent before reports carried an outcome: a bare ShardRef.
// Before the shard's points are in the store it fails verification,
// which settles as a failed run (an attempt and a "failed" event);
// after a worker computed them it is a finished run.
func TestBareShardRefCompletesAsFinishedRun(t *testing.T) {
	srv, ts := newTestServer(t, func(c *Config) {
		c.Workers = 0
		c.LeaseTTL = time.Minute
	})
	spec := JobSpec{Experiment: "sweep", Seed: 2, Options: GridOptions{Instructions: 4}, Shards: 1}
	st := submitJob(t, ts, spec)
	complete := func(cl ClaimResponse) int {
		resp, _ := postJSON(t, ts.URL+"/shards/complete", ShardRef{Worker: "old", Job: cl.Job, Shard: cl.Shard, Gen: cl.Gen})
		return resp.StatusCode
	}

	if code := complete(claimShard(t, ts, "old")); code != http.StatusConflict {
		t.Fatalf("unverifiable completion: status %d, want 409", code)
	}
	if got := jobStatus(t, ts, st.ID); got.Shards[0].State != shardPending || got.Shards[0].Attempts != 1 {
		t.Fatalf("failed verification did not hand the lease back with an attempt: %+v", got.Shards)
	}
	if n := shardEvents(t, srv, st.ID); n["failed"] != 1 {
		t.Fatalf("failed verification events %v, want one failed", n)
	}

	cl := claimShard(t, ts, "old")
	exp, _ := benchRegistry(cl.Options).Get(cl.Experiment)
	s, err := store.Open(cl.StoreDir)
	if err != nil {
		t.Fatal(err)
	}
	runner := sim.Runner{Workers: 1, Seed: cl.Seed, Cache: &sim.StoreCache{Store: s, Scope: cl.Scope}}
	if _, err := runner.RunTasks(context.Background(), exp, cl.TaskIDs); err != nil {
		t.Fatal(err)
	}
	if code := complete(cl); code != http.StatusOK {
		t.Fatalf("bare ShardRef completion: status %d", code)
	}
	if final := waitTerminal(t, ts, st.ID); final.State != JobDone {
		t.Fatalf("job ended %q: %s", final.State, final.Error)
	}
	_, result := getBody(t, ts.URL+"/jobs/"+st.ID+"/result?format=json")
	if want := soloBytes(t, spec.Options, spec.Seed, spec.Experiment, "json"); string(result) != want {
		t.Fatal("result from a bare ShardRef completion differs from solo run")
	}
}
