package sim

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"sync"
)

// Runner executes an experiment's parameter grid on a worker pool.
//
// Workers take dispatch units in grid order: a task on its own, or
// every task that shares a non-empty Task.Group, run back to back on
// one worker so siblings never wait on a memo another worker is
// building. Each worker writes a result into the slot indexed by its
// task's grid position, so the collected slice — and everything derived
// from it (Finish summaries, sink output) — is identical for any worker
// count and any grouping.
//
// A task runs once, and every failure takes one path: a returned error
// or a recovered panic becomes an error naming the experiment and grid
// point, stops further dispatch, and comes back with the results that
// did complete. A cancelled context drains the pool without leaking
// goroutines, and a configured Cache checkpoints every completed task
// so an interrupted sweep resumes with hits. None of this changes the
// determinism contract: byte-identical output for any worker count,
// with or without a warm cache.
type Runner struct {
	// Workers is the pool size; ≤ 0 means runtime.GOMAXPROCS(0).
	Workers int
	// Seed is the master seed every per-task RNG derives from. Zero is
	// a valid (and the default) fixed seed.
	Seed int64

	// Cache, when non-nil, is consulted before each task runs and
	// written after it completes — the durable-resume hook (see
	// StoreCache). Cache hits bypass Run entirely.
	Cache ResultCache

	// Progress, when non-nil, is invoked once for every task that
	// completes successfully — computed or served from Cache — with the
	// fully stamped result. It is called from worker goroutines, so it
	// must be safe for concurrent use, and it is the service layer's
	// per-grid-point event hook: failures are not reported here, they
	// surface through the run's returned error.
	Progress func(r Result, cached bool)
}

// Run executes every task of the experiment's grid and returns the
// results in grid order, then applies the experiment's Finish hook if
// it has one. The first task error (by grid index among the tasks that
// ran) aborts the run. Equivalent to RunContext with a background
// context.
func (r Runner) Run(e Experiment) ([]Result, error) {
	return r.RunContext(context.Background(), e)
}

// RunContext is Run under a context. Cancellation stops new tasks from
// being dispatched, lets in-flight tasks finish (and checkpoint), and
// drains every worker before returning — no goroutine outlives the
// call. On any failure — a task error, a recovered panic, or
// cancellation — RunContext returns the results that DID complete, in
// grid order, alongside the error, so drivers can flush partial output
// instead of abandoning it; the Finish hook only runs on complete,
// error-free grids, where its aggregates are meaningful.
//
// The first failing task cancels dispatch, and the reported error is
// the lowest-grid-index failure among the tasks that ran, wrapped to
// name the experiment and grid point.
func (r Runner) RunContext(ctx context.Context, e Experiment) ([]Result, error) {
	tasks := e.Grid()
	ids := make([]int, len(tasks))
	for i := range ids {
		ids[i] = i
	}
	results, err := r.runTasks(ctx, e, tasks, ids)
	if err != nil {
		return results, err
	}
	return Finish(e, results)
}

// RunTasks runs the subset of the experiment's grid named by ids (grid
// indices) and returns their results in ids order. Every task keeps its
// global grid identity — the same ID, the same derived seed — so a grid
// computed shard by shard, by any number of processes in any order, is
// byte-identical to one computed whole: the sharded-sweep primitive of
// the service layer. The Finish hook is NOT applied (it needs the whole
// grid); assemble the full result set and call Finish explicitly.
//
// Error semantics match RunContext: on failure the completed results
// (in ids order) come back alongside the error.
func (r Runner) RunTasks(ctx context.Context, e Experiment, ids []int) ([]Result, error) {
	tasks := e.Grid()
	for _, id := range ids {
		if id < 0 || id >= len(tasks) {
			return nil, fmt.Errorf("sim: %s: task id %d outside grid [0, %d)", e.Name(), id, len(tasks))
		}
	}
	return r.runTasks(ctx, e, tasks, ids)
}

// runTasks is the pooled execution core shared by RunContext (all ids)
// and RunTasks (a shard): positions index ids, task identity comes from
// the grid. The pool dispatches units (see units), and a worker runs a
// unit's tasks in position order, checking the context between them.
func (r Runner) runTasks(ctx context.Context, e Experiment, tasks []Task, ids []int) ([]Result, error) {
	n := len(ids)
	results := make([]Result, n)
	done := make([]bool, n)
	errs := make([]error, n)

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	runOne := func(pos int) {
		i := ids[pos]
		t := tasks[i]
		t.ID = i
		t.Seed = SubSeed(r.Seed, e.Name(), i)
		if r.Cache != nil {
			if res, ok := r.Cache.Get(e.Name(), t); ok {
				// Re-stamp the live coordinates: the digest guarantees
				// they match, and stamping makes that impossible to
				// get wrong even for a hand-rolled cache.
				res.Experiment = e.Name()
				res.Task = t
				results[pos], done[pos] = res, true
				if r.Progress != nil {
					r.Progress(res, true)
				}
				return
			}
		}
		res, err := runShielded(func() (Result, error) {
			return e.Run(t, rand.New(rand.NewSource(t.Seed)))
		})
		if err != nil {
			errs[pos] = fmt.Errorf("%s [%s]: %w", e.Name(), t.Label, err)
			cancel() // first failure stops dispatching new tasks
			return
		}
		res.Experiment = e.Name()
		res.Task = t
		results[pos], done[pos] = res, true
		if r.Cache != nil {
			r.Cache.Put(e.Name(), t, res)
		}
		if r.Progress != nil {
			r.Progress(res, false)
		}
	}
	us := units(tasks, ids)
	forEach(runCtx, r.Workers, len(us), func(u int) {
		for _, pos := range us[u] {
			if runCtx.Err() != nil {
				return
			}
			runOne(pos)
		}
	})

	var firstErr error
	for _, err := range errs {
		if err != nil {
			firstErr = err
			break
		}
	}
	if firstErr == nil {
		firstErr = ctx.Err()
	}
	if firstErr != nil {
		partial := results[:0:0]
		for pos, ok := range done {
			if ok {
				partial = append(partial, results[pos])
			}
		}
		return partial, firstErr
	}
	return results, nil
}

// units partitions the positions of ids into dispatch units: the
// tasks sharing a non-empty Group form one unit, in position order, and
// every other task is a unit of its own. Units are ordered by their
// first position, so a grid without groups is dispatched task by task
// in grid order. Only the tasks named by ids are grouped.
func units(tasks []Task, ids []int) [][]int {
	us := make([][]int, 0, len(ids))
	byGroup := make(map[string]int)
	for pos, id := range ids {
		g := tasks[id].Group
		if g == "" {
			us = append(us, []int{pos})
			continue
		}
		u, ok := byGroup[g]
		if !ok {
			u = len(us)
			byGroup[g] = u
			us = append(us, nil)
		}
		us[u] = append(us[u], pos)
	}
	return us
}

// Finish applies the experiment's Finisher hook — summary rows derived
// from the complete, grid-ordered result set — stamping any rows the
// hook added with the experiment name. Experiments without a Finisher
// pass through unchanged. Callers that assemble a grid from shards
// (RunTasks) use this to get the exact result set RunContext would have
// produced. A panicking hook comes back as an error wrapping a
// *PanicError, like a panicking task.
func Finish(e Experiment, results []Result) ([]Result, error) {
	f, ok := e.(Finisher)
	if !ok {
		return results, nil
	}
	results, err := runShielded(func() ([]Result, error) { return f.Finish(results) })
	if _, panicked := err.(*PanicError); panicked {
		err = fmt.Errorf("finish hook panicked: %w", err)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: finish: %w", e.Name(), err)
	}
	for i := range results {
		if results[i].Experiment == "" {
			results[i].Experiment = e.Name()
		}
	}
	return results, nil
}

// RunAll runs the named experiments from the registry in order and
// returns the concatenated results. Equivalent to RunAllContext with a
// background context.
func (r Runner) RunAll(reg *Registry, names []string) ([]Result, error) {
	return r.RunAllContext(context.Background(), reg, names)
}

// RunAllContext is RunAll under a context. On failure it returns every
// result completed so far — full experiments plus the failing one's
// completed prefix — alongside the error, so a driver can flush what a
// long sweep did manage to compute (and, with a Cache, has already
// checkpointed) before exiting non-zero.
func (r Runner) RunAllContext(ctx context.Context, reg *Registry, names []string) ([]Result, error) {
	var out []Result
	for _, name := range names {
		e, ok := reg.Get(name)
		if !ok {
			return out, fmt.Errorf("sim: unknown experiment %q", name)
		}
		res, err := r.RunContext(ctx, e)
		out = append(out, res...)
		if err != nil {
			return out, err
		}
	}
	return out, nil
}

// Map fans fn out over indices [0, n) across a pool of `workers`
// goroutines and returns the outputs in index order. It is the engine's
// primitive for embarrassingly parallel inner loops (workload fan-out,
// Monte-Carlo trial shards). The first error stops dispatch: indices are
// handed out in order, so every index below a failing one has run, and
// the error returned is the one at the lowest index.
func Map[T any](workers, n int, fn func(i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	out := make([]T, n)
	errs := make([]error, n)
	forEach(ctx, workers, n, func(i int) {
		if out[i], errs[i] = fn(i); errs[i] != nil {
			cancel()
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// forEach calls fn(i) for i in [0, n), dispatching indices in order to
// up to workers goroutines (≤ 0 means runtime.GOMAXPROCS(0); the count
// is clamped to n, and one or fewer runs serially on the caller's
// goroutine). Once ctx is done no further index is dispatched; forEach
// returns after every call it made has returned. It is the one worker
// pool behind Runner and Map.
func forEach(ctx context.Context, workers, n int, fn func(i int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n && ctx.Err() == nil; i++ {
			fn(i)
		}
		return
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				fn(i)
			}
		}()
	}
feed:
	for i := 0; i < n; i++ {
		select {
		case jobs <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(jobs)
	wg.Wait()
}

// SubSeed derives a deterministic per-task seed from a master seed, a
// stream name and an index, using an FNV-mixed splitmix64 finalizer.
// Distinct (name, index) pairs get statistically independent seeds, and
// the derivation depends on nothing scheduling-related — the foundation
// of the engine's any-worker-count determinism.
func SubSeed(master int64, name string, index int) int64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	x := uint64(master) ^ h.Sum64()
	x += (uint64(index) + 1) * 0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return int64(x)
}
