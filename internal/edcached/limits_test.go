package edcached

import (
	"context"
	"errors"
	"math"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestOversizedBodiesAnswer413 sends every JSON endpoint a body just
// over maxBodyBytes: each must answer 413 (never 500), and the server
// must then still run a normal job to completion.
func TestOversizedBodiesAnswer413(t *testing.T) {
	_, ts := newTestServer(t, nil)
	pad := strings.Repeat("a", maxBodyBytes)
	for _, path := range []string{"/jobs", "/shards/claim", "/shards/renew", "/shards/complete"} {
		t.Run(strings.TrimPrefix(path, "/"), func(t *testing.T) {
			resp, body := postJSON(t, ts.URL+path, map[string]string{"worker": "w", "pad": pad})
			if resp.StatusCode != http.StatusRequestEntityTooLarge {
				t.Fatalf("status %d, want 413: %s", resp.StatusCode, body)
			}
		})
	}
	st := submitJob(t, ts, JobSpec{Experiment: "summed", Seed: 1, Options: GridOptions{Instructions: 4}})
	if final := waitTerminal(t, ts, st.ID); final.State != JobDone {
		t.Fatalf("job after oversized bodies ended %q: %s", final.State, final.Error)
	}
}

// TestHeartbeatCancelsOnLostLease pins the shared renew loop: a refused
// renewal cancels the shard context with errLeaseLost, while stop on a
// held lease cancels it with no lease-lost cause.
func TestHeartbeatCancelsOnLostLease(t *testing.T) {
	ctx, stop := withHeartbeat(context.Background(), 3*time.Millisecond, func(context.Context) bool { return false })
	<-ctx.Done()
	stop()
	if cause := context.Cause(ctx); !errors.Is(cause, errLeaseLost) {
		t.Errorf("refused renewal: cause %v, want errLeaseLost", cause)
	}

	var beats atomic.Int32
	ctx, stop = withHeartbeat(context.Background(), 3*time.Millisecond, func(context.Context) bool {
		beats.Add(1)
		return true
	})
	for deadline := time.Now().Add(10 * time.Second); beats.Load() < 3 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if ctx.Err() != nil {
		t.Fatalf("held lease cancelled the shard: %v", context.Cause(ctx))
	}
	stop()
	if beats.Load() < 3 {
		t.Errorf("%d renewals, want at least 3", beats.Load())
	}
	if cause := context.Cause(ctx); ctx.Err() == nil || errors.Is(cause, errLeaseLost) {
		t.Errorf("stop on a held lease: err %v, cause %v", ctx.Err(), cause)
	}
}

// TestDeadlineMSBounded pins JobSpec.DeadlineMS to what a time.Duration
// holds: a negative deadline, or one whose nanoseconds overflow int64,
// answers 400 instead of wrapping to a tiny or negative timeout, and
// the largest representable one lets a job run to completion.
func TestDeadlineMSBounded(t *testing.T) {
	_, ts := newTestServer(t, nil)
	maxMS := int64(math.MaxInt64 / int64(time.Millisecond))
	for _, ms := range []int64{-1, maxMS + 1, 10_000_000_000_000, 18446744073710} {
		spec := JobSpec{Experiment: "summed", Seed: 1, Options: GridOptions{Instructions: 4}, DeadlineMS: ms}
		if resp, body := postJSON(t, ts.URL+"/jobs", spec); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("deadlineMS %d: status %d, want 400: %s", ms, resp.StatusCode, body)
		}
	}
	st := submitJob(t, ts, JobSpec{Experiment: "summed", Seed: 1, Options: GridOptions{Instructions: 4}, DeadlineMS: maxMS})
	if final := waitTerminal(t, ts, st.ID); final.State != JobDone {
		t.Fatalf("deadlineMS %d: job ended %q: %s", maxMS, final.State, final.Error)
	}
}

// TestGridOptionsAdmissionCaps pins the POST /jobs caps on the grid
// options: a job at maxInstructions or maxTrials is admitted, one past
// either cap answers 400. The server runs no shard and its registry caps
// grids at 16 points, so an admitted job computes and allocates nothing.
func TestGridOptionsAdmissionCaps(t *testing.T) {
	_, ts := newTestServer(t, func(c *Config) {
		c.Registry = fuzzRegistry
		c.Workers = 0
	})
	for _, tc := range []struct {
		opts GridOptions
		want int
	}{
		{GridOptions{Instructions: maxInstructions}, http.StatusAccepted},
		{GridOptions{Trials: maxTrials}, http.StatusAccepted},
		{GridOptions{Instructions: maxInstructions + 1}, http.StatusBadRequest},
		{GridOptions{Trials: maxTrials + 1}, http.StatusBadRequest},
		{GridOptions{Instructions: 1_000_000_000_000}, http.StatusBadRequest},
	} {
		spec := JobSpec{Experiment: "sweep", Seed: 1, Options: tc.opts}
		if resp, body := postJSON(t, ts.URL+"/jobs", spec); resp.StatusCode != tc.want {
			t.Errorf("options %+v: status %d, want %d: %s", tc.opts, resp.StatusCode, tc.want, body)
		}
	}
}
