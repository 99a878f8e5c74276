package sim

// RunTasks is the sharded-sweep primitive: a subset of a grid run with
// global task identity. These tests pin the contract the service layer
// (internal/edcached) is built on — shard-by-shard execution assembles
// to exactly what a whole-grid run produces, and the Progress hook sees
// every completed point exactly once with the right cached flag.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
)

func TestRunTasksShardsAssembleToWholeGrid(t *testing.T) {
	e := gridExperiment("sharded", 17)
	whole, err := Runner{Workers: 4, Seed: 9}.Run(e)
	if err != nil {
		t.Fatal(err)
	}

	// Three uneven shards, run in a scrambled order at different worker
	// counts, must deposit exactly the whole-grid results.
	shards := [][]int{{12, 13, 14, 15, 16}, {0, 1, 2, 3, 4, 5}, {6, 7, 8, 9, 10, 11}}
	byID := make(map[int]Result)
	for w, shard := range shards {
		res, err := Runner{Workers: w + 1, Seed: 9}.RunTasks(context.Background(), e, shard)
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != len(shard) {
			t.Fatalf("shard %v: %d results", shard, len(res))
		}
		for pos, r := range res {
			if r.Task.ID != shard[pos] {
				t.Fatalf("shard %v: result %d has task ID %d", shard, pos, r.Task.ID)
			}
			byID[r.Task.ID] = r
		}
	}
	assembled := make([]Result, 0, len(whole))
	for i := 0; i < len(whole); i++ {
		assembled = append(assembled, byID[i])
	}
	if !reflect.DeepEqual(assembled, whole) {
		t.Fatal("sharded run differs from whole-grid run")
	}
}

func TestRunTasksRejectsOutOfRangeIDs(t *testing.T) {
	e := gridExperiment("bounds", 4)
	for _, ids := range [][]int{{4}, {-1}, {0, 99}} {
		if _, err := (Runner{}).RunTasks(context.Background(), e, ids); err == nil {
			t.Fatalf("ids %v accepted", ids)
		}
	}
}

func TestRunTasksErrorReturnsCompletedSubset(t *testing.T) {
	boom := errors.New("bad cell")
	e := Def{
		ExpName: "failing",
		GridFn:  gridExperiment("failing", 8).GridFn,
		RunFn: func(tk Task, rng *rand.Rand) (Result, error) {
			if tk.ID == 5 {
				return Result{}, boom
			}
			return Result{Metrics: []Metric{Num("v", float64(tk.ID))}}, nil
		},
	}
	res, err := Runner{Workers: 1}.RunTasks(context.Background(), e, []int{4, 5, 6})
	if !errors.Is(err, boom) {
		t.Fatalf("want task error, got %v", err)
	}
	if len(res) != 1 || res[0].Task.ID != 4 {
		t.Fatalf("partial shard results wrong: %+v", res)
	}
}

func TestProgressHookSeesEveryPointOnce(t *testing.T) {
	e := gridExperiment("progress", 10)
	type seen struct {
		id     int
		cached bool
	}
	collect := func(r Runner) []seen {
		var mu sync.Mutex
		var got []seen
		r.Progress = func(res Result, cached bool) {
			if res.Experiment != "progress" {
				t.Errorf("progress result not stamped: %+v", res)
			}
			mu.Lock()
			got = append(got, seen{res.Task.ID, cached})
			mu.Unlock()
		}
		if _, err := r.Run(e); err != nil {
			t.Fatal(err)
		}
		sort.Slice(got, func(i, j int) bool { return got[i].id < got[j].id })
		return got
	}

	cache := newStoreCache(t, true)
	cold := collect(Runner{Workers: 3, Cache: cache})
	if len(cold) != 10 {
		t.Fatalf("cold run: %d progress calls, want 10", len(cold))
	}
	for i, s := range cold {
		if s.id != i || s.cached {
			t.Fatalf("cold run point %d: %+v", i, s)
		}
	}
	warm := collect(Runner{Workers: 3, Cache: &StoreCache{Store: cache.Store, Scope: cache.Scope, Read: true}})
	for i, s := range warm {
		if s.id != i || !s.cached {
			t.Fatalf("warm run point %d not reported cached: %+v", i, s)
		}
	}
}

func TestFinishHelperMatchesRunContext(t *testing.T) {
	e := Def{
		ExpName: "summed",
		GridFn:  gridExperiment("summed", 6).GridFn,
		RunFn:   gridExperiment("summed", 6).RunFn,
		FinishFn: func(results []Result) ([]Result, error) {
			total := 0.0
			for _, r := range results {
				total += r.Metrics[0].Value
			}
			return append(results, Result{Task: Task{Label: "sum"}, Metrics: []Metric{Num("total", total)}}), nil
		},
	}
	whole, err := Runner{Workers: 2}.Run(e)
	if err != nil {
		t.Fatal(err)
	}
	perTask, err := Runner{Workers: 2}.RunTasks(context.Background(), e, []int{0, 1, 2, 3, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	finished, err := Finish(e, perTask)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(finished, whole) {
		t.Fatal("Finish over RunTasks results differs from RunContext")
	}
	if finished[len(finished)-1].Experiment != "summed" {
		t.Fatal("Finish did not stamp the summary row")
	}
}

func TestFinishHelperWrapsErrors(t *testing.T) {
	e := Def{
		ExpName:  "finfail",
		GridFn:   gridExperiment("finfail", 2).GridFn,
		RunFn:    gridExperiment("finfail", 2).RunFn,
		FinishFn: func([]Result) ([]Result, error) { return nil, fmt.Errorf("no aggregate") },
	}
	if _, err := Finish(e, nil); err == nil || err.Error() != "finfail: finish: no aggregate" {
		t.Fatalf("finish error not wrapped: %v", err)
	}
}

func TestFinishPanicIsAnError(t *testing.T) {
	e := Def{
		ExpName:  "finpanic",
		GridFn:   gridExperiment("finpanic", 2).GridFn,
		RunFn:    gridExperiment("finpanic", 2).RunFn,
		FinishFn: func([]Result) ([]Result, error) { panic("summary bug") },
	}
	for _, run := range []func() ([]Result, error){
		func() ([]Result, error) { return Finish(e, nil) },
		func() ([]Result, error) { return Runner{Workers: 2}.Run(e) },
	} {
		res, err := run()
		var pe *PanicError
		if !errors.As(err, &pe) || pe.Value != "summary bug" {
			t.Fatalf("Finish panic not returned as a PanicError: %v", err)
		}
		if !strings.HasPrefix(err.Error(), "finpanic: finish: finish hook panicked: panic: summary bug") {
			t.Fatalf("Finish panic error = %q", err)
		}
		if res != nil {
			t.Fatalf("Finish panic returned results: %v", res)
		}
	}
}
