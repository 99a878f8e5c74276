package edcached

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"edcache/internal/sim"
	"edcache/internal/store"
)

// Worker is the external shard worker behind `edcached -worker`: an
// HTTP client that claims shards, computes them against the shared
// store, and reports completion. The store is the data plane — results
// never travel over HTTP; completing a shard just tells the server to
// verify and collect the checkpoints — so a worker that crashes
// mid-shard loses nothing but its lease: whatever it checkpointed is
// replayed by the next holder.
type Worker struct {
	// Server is the daemon's base URL (http://host:port).
	Server string
	// Name identifies this worker in leases and events.
	Name string
	// HTTP is the client to use; nil means http.DefaultClient.
	HTTP *http.Client
	// Registry builds experiments from claimed options; nil means
	// DefaultRegistry. It must match the server's registry — the claim
	// carries the exact experiment name and the scope, so a mismatched
	// registry either misses the name (shard abandoned, lease expires)
	// or computes under a different scope digest (results ignored);
	// it can never corrupt the store.
	Registry RegistryFunc
	// Poll is the idle claim interval; 0 means 500ms.
	Poll time.Duration

	mu     sync.Mutex
	stores map[string]*store.Store
}

// Run claims and computes shards until ctx is cancelled. Connection
// failures are retried at the poll interval — a worker outlives server
// restarts by design.
func (w *Worker) Run(ctx context.Context) error {
	poll := w.Poll
	if poll <= 0 {
		poll = 500 * time.Millisecond
	}
	for {
		if ctx.Err() != nil {
			return nil
		}
		var cl ClaimResponse
		code, err := w.post(ctx, "/shards/claim", ClaimRequest{Worker: w.Name}, &cl)
		switch {
		case ctx.Err() != nil:
			return nil
		case err != nil || code == http.StatusNoContent:
			if err != nil {
				logf("edcached worker %s: claim: %v", w.Name, err)
			}
			if !sleepCtx(ctx, poll) {
				return nil
			}
		case code != http.StatusOK:
			logf("edcached worker %s: claim: status %d", w.Name, code)
			if !sleepCtx(ctx, poll) {
				return nil
			}
		default:
			w.runClaim(ctx, cl)
		}
	}
}

// runClaim computes one claimed shard under a heartbeat.
func (w *Worker) runClaim(ctx context.Context, cl ClaimResponse) {
	registry := w.Registry
	if registry == nil {
		registry = DefaultRegistry
	}
	exp, ok := registry(cl.Options).Get(cl.Experiment)
	if !ok {
		logf("edcached worker %s: claim names unknown experiment %q; abandoning shard", w.Name, cl.Experiment)
		return // the lease expires and someone competent re-claims
	}
	st, err := w.openStore(cl.StoreDir)
	if err != nil {
		logf("edcached worker %s: %v", w.Name, err)
		return
	}
	cache := &sim.StoreCache{Store: st, Scope: cl.Scope, Read: true}

	ref := ShardRef{Worker: w.Name, Job: cl.Job, Shard: cl.Shard, Gen: cl.Gen}
	ttl := time.Duration(cl.TTLMS) * time.Millisecond
	shardCtx, stop := withHeartbeat(ctx, ttl, func(ctx context.Context) bool {
		code, err := w.post(ctx, "/shards/renew", ref, nil)
		// Transport errors keep the lease: the server may be mid-restart,
		// and computing on is harmless (idempotent).
		return err != nil || code == http.StatusOK
	})
	runner := sim.Runner{Workers: 1, Seed: cl.Seed, Cache: cache}
	_, err = runner.RunTasks(shardCtx, exp, cl.TaskIDs)
	stop()
	if err != nil {
		logf("edcached worker %s: job %s shard %d: %v", w.Name, cl.Job, cl.Shard, err)
		return // completed points are checkpointed; the lease recycles the rest
	}
	if code, err := w.post(ctx, "/shards/complete", ref, nil); err != nil {
		logf("edcached worker %s: complete: %v", w.Name, err)
	} else if code != http.StatusOK {
		logf("edcached worker %s: complete: status %d", w.Name, code)
	}
}

// openStore opens (once per directory) the shared store a claim names.
func (w *Worker) openStore(dir string) (*store.Store, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.stores == nil {
		w.stores = make(map[string]*store.Store)
	}
	if st, ok := w.stores[dir]; ok {
		return st, nil
	}
	st, err := store.Open(dir)
	if err != nil {
		return nil, fmt.Errorf("open shared store %s: %w", dir, err)
	}
	w.stores[dir] = st
	return st, nil
}

// post sends a JSON body and decodes a JSON reply into out (when out is
// non-nil and the reply is 200).
func (w *Worker) post(ctx context.Context, path string, body, out any) (int, error) {
	b, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.Server+path, bytes.NewReader(b))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	client := w.HTTP
	if client == nil {
		client = http.DefaultClient
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return resp.StatusCode, err
		}
	}
	return resp.StatusCode, nil
}

// sleepCtx sleeps d unless ctx ends first.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}
