package sim

// Runner shutdown-path coverage: cancellation and first-error shutdowns
// must drain the worker pool without leaking goroutines (checked by
// goroutine count, run under -race in CI), a panicking Experiment must
// surface as an error naming the grid point, and a failing task must run
// exactly once.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// sleepyExperiment is an n-task grid whose tasks sleep briefly; run
// hooks let tests inject failures per task index.
func sleepyExperiment(name string, n int, d time.Duration, hook func(t Task) error) Def {
	return Def{
		ExpName: name,
		GridFn: func() []Task {
			tasks := make([]Task, n)
			for i := range tasks {
				tasks[i] = Task{Label: fmt.Sprintf("point-%02d", i), Params: P("i", fmt.Sprint(i))}
			}
			return tasks
		},
		RunFn: func(t Task, rng *rand.Rand) (Result, error) {
			time.Sleep(d)
			if hook != nil {
				if err := hook(t); err != nil {
					return Result{}, err
				}
			}
			return Result{Metrics: []Metric{Num("v", float64(rng.Int63()%1000))}}, nil
		},
	}
}

// assertNoLeakedGoroutines polls until the goroutine count settles back
// to the baseline (small tolerance for runtime housekeeping).
func assertNoLeakedGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		now := runtime.NumGoroutine()
		if now <= baseline+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: baseline %d, now %d\n%s", baseline, now, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestRunContextCancellationDrainsWorkers(t *testing.T) {
	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(15 * time.Millisecond)
		cancel()
	}()
	r := Runner{Workers: 8}
	results, err := r.RunContext(ctx, sleepyExperiment("cancelme", 400, 2*time.Millisecond, nil))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if len(results) == 0 || len(results) >= 400 {
		t.Fatalf("expected a partial result set, got %d of 400", len(results))
	}
	// Partial results arrive in grid order with their coordinates set.
	last := -1
	for _, res := range results {
		if res.Experiment != "cancelme" {
			t.Fatalf("partial result missing experiment: %+v", res)
		}
		if res.Task.ID <= last {
			t.Fatalf("partial results out of grid order: %d after %d", res.Task.ID, last)
		}
		last = res.Task.ID
	}
	cancel()
	assertNoLeakedGoroutines(t, baseline)
}

func TestRunContextFirstErrorStopsDispatchCleanly(t *testing.T) {
	baseline := runtime.NumGoroutine()
	boom := errors.New("grid point exploded")
	var ran sync.Map
	e := sleepyExperiment("failfast", 64, time.Millisecond, func(tk Task) error {
		ran.Store(tk.ID, true)
		if tk.ID == 5 {
			return boom
		}
		return nil
	})
	r := Runner{Workers: 4}
	results, err := r.RunContext(context.Background(), e)
	if !errors.Is(err, boom) {
		t.Fatalf("want the task error, got %v", err)
	}
	if want := `failfast [point-05]`; !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not name the grid point %q", err, want)
	}
	executed := 0
	ran.Range(func(_, _ any) bool { executed++; return true })
	if executed >= 64 {
		t.Fatal("first error did not stop dispatch: every task ran")
	}
	for _, res := range results {
		if res.Task.ID == 5 {
			t.Fatal("failed task present in partial results")
		}
	}
	assertNoLeakedGoroutines(t, baseline)
}

func TestRunContextPanicNamesGridPoint(t *testing.T) {
	baseline := runtime.NumGoroutine()
	e := sleepyExperiment("panicky", 16, 0, func(tk Task) error {
		if tk.ID == 3 {
			panic("simulated bug in a grid point")
		}
		return nil
	})
	for _, workers := range []int{1, 4} {
		_, err := Runner{Workers: workers}.RunContext(context.Background(), e)
		if err == nil {
			t.Fatalf("workers=%d: panic did not surface as an error", workers)
		}
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: error %v is not a PanicError", workers, err)
		}
		if pe.Value != "simulated bug in a grid point" || len(pe.Stack) == 0 {
			t.Fatalf("workers=%d: panic payload lost: %+v", workers, pe)
		}
		for _, want := range []string{"panicky", "[point-03]", "panic:"} {
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("workers=%d: error %q missing %q", workers, err, want)
			}
		}
	}
	assertNoLeakedGoroutines(t, baseline)
}

func TestFailingTaskRunsOnce(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var mu sync.Mutex
		runs := 0
		fatal := sleepyExperiment("fatal", 1, 0, func(tk Task) error {
			mu.Lock()
			runs++
			mu.Unlock()
			return errors.New("deterministic failure")
		})
		if _, err := (Runner{Workers: workers}).Run(fatal); err == nil || !strings.Contains(err.Error(), "deterministic failure") {
			t.Fatalf("workers=%d: want the task error, got %v", workers, err)
		}
		if runs != 1 {
			t.Fatalf("workers=%d: failing task ran %d times, want 1", workers, runs)
		}
	}
}
