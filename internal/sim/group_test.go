package sim

// Grouped dispatch: tasks that share a non-empty Task.Group form one
// unit that a single worker runs back to back. These tests pin what a
// unit promises (one worker, grid order, no sibling waiting on a memo
// another worker builds) and what it must leave alone (result bytes,
// the lowest-index-error contract, cancellation, RunTasks subsets).

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// goid returns the calling goroutine's id, parsed from its stack header
// ("goroutine 42 [running]:"): the one handle a test has on which
// worker ran a task.
func goid() int {
	var buf [64]byte
	s := strings.TrimPrefix(string(buf[:runtime.Stack(buf[:], false)]), "goroutine ")
	id, err := strconv.Atoi(s[:strings.IndexByte(s, ' ')])
	if err != nil {
		panic(err)
	}
	return id
}

// groupedExperiment is an n-task grid whose task i belongs to group(i)
// ("" for none). Each task reports its ID and a draw from its RNG, and
// calls hook first when one is given.
func groupedExperiment(name string, n int, group func(i int) string, hook func(t Task) error) Def {
	return Def{
		ExpName: name,
		GridFn: func() []Task {
			tasks := make([]Task, n)
			for i := range tasks {
				tasks[i] = Task{Label: fmt.Sprintf("cell-%02d", i), Params: P("i", fmt.Sprint(i)), Group: group(i)}
			}
			return tasks
		},
		RunFn: func(t Task, rng *rand.Rand) (Result, error) {
			if hook != nil {
				if err := hook(t); err != nil {
					return Result{}, err
				}
			}
			return Result{Metrics: []Metric{Num("id", float64(t.ID)), Num("draw", float64(rng.Int63()))}}, nil
		},
	}
}

// runLog records, per worker goroutine, the task IDs it ran in order.
type runLog struct {
	mu    sync.Mutex
	byGID map[int][]int
	ran   map[int]bool
}

func newRunLog() *runLog { return &runLog{byGID: map[int][]int{}, ran: map[int]bool{}} }

func (l *runLog) record(id int) {
	g := goid()
	l.mu.Lock()
	l.byGID[g] = append(l.byGID[g], id)
	l.ran[id] = true
	l.mu.Unlock()
}

// checkUnits fails unless every unit's IDs ran on one goroutine,
// consecutively and in the given order.
func (l *runLog) checkUnits(t *testing.T, units [][]int) {
	t.Helper()
	for _, u := range units {
		found := false
		for g, seq := range l.byGID {
			for i := range seq {
				if seq[i] != u[0] {
					continue
				}
				found = true
				if i+len(u) > len(seq) || !reflect.DeepEqual(seq[i:i+len(u)], u) {
					t.Errorf("unit %v did not run back to back on one worker: goroutine %d ran %v", u, g, seq)
				}
			}
		}
		if !found {
			t.Errorf("unit %v: task %d never ran", u, u[0])
		}
	}
}

// TestRunnerGroupRunsUnitBackToBack lays a grid out as corpus-miss
// does: each source's tasks next to each other, all reading one memo
// keyed by the source. A unit's tasks must run in grid order on one
// worker, so none of them ever waits on a memo a sibling is building
// on another worker.
func TestRunnerGroupRunsUnitBackToBack(t *testing.T) {
	const sources, perSource = 6, 4
	group := func(i int) string {
		if i >= sources*perSource {
			return "" // a tail of ungrouped tasks
		}
		return fmt.Sprintf("src%d", i/perSource)
	}
	for _, workers := range []int{2, 8} {
		for round := 0; round < 3; round++ {
			var (
				mu      sync.Mutex
				seq     int
				builder = map[string]int{}
				built   = map[string]int{} // seq at which the build finished
			)
			memo := NewShared(func(g string) (string, error) {
				mu.Lock()
				builder[g] = goid()
				mu.Unlock()
				time.Sleep(2 * time.Millisecond)
				mu.Lock()
				seq++
				built[g] = seq
				mu.Unlock()
				return g, nil
			})
			log := newRunLog()
			e := groupedExperiment("memo", sources*perSource+3, group, func(tk Task) error {
				log.record(tk.ID)
				if tk.Group == "" {
					return nil
				}
				me := goid()
				mu.Lock()
				seq++
				start := seq
				mu.Unlock()
				if _, err := memo.Get(tk.Group); err != nil {
					return err
				}
				mu.Lock()
				defer mu.Unlock()
				if builder[tk.Group] != me && start < built[tk.Group] {
					t.Errorf("workers=%d: task %d waited on memo %s built by goroutine %d", workers, tk.ID, tk.Group, builder[tk.Group])
				}
				return nil
			})
			if _, err := (Runner{Workers: workers}).Run(e); err != nil {
				t.Fatal(err)
			}
			var units [][]int
			for s := 0; s < sources; s++ {
				u := make([]int, perSource)
				for k := range u {
					u[k] = s*perSource + k
				}
				units = append(units, u)
			}
			log.checkUnits(t, units)
		}
	}
}

// TestRunnerGroupResultsIdenticalAcrossWorkers interleaves groups
// through the grid and leaves some tasks ungrouped: the rendered bytes
// must not depend on the worker count or on whether the grid declares
// groups at all.
func TestRunnerGroupResultsIdenticalAcrossWorkers(t *testing.T) {
	grouped := func(i int) string {
		if i%5 == 0 {
			return ""
		}
		return fmt.Sprintf("g%d", i%3)
	}
	render := func(res []Result) []byte {
		var b bytes.Buffer
		if err := (&JSONSink{W: &b}).Write(res); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	var want []byte
	var first []Result
	for _, group := range []func(int) string{grouped, func(int) string { return "" }} {
		e := groupedExperiment("bytes", 23, group, nil)
		for _, workers := range []int{1, 2, 8} {
			res, err := Runner{Workers: workers, Seed: 5}.Run(e)
			if err != nil {
				t.Fatal(err)
			}
			for i, r := range res {
				if r.Task.ID != i {
					t.Fatalf("workers=%d: result %d holds task %d", workers, i, r.Task.ID)
				}
			}
			got := render(res)
			if want == nil {
				want, first = got, res
				continue
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("workers=%d: output differs from the grouped run at 1 worker", workers)
			}
			if group(1) != "" && !reflect.DeepEqual(res, first) {
				t.Fatalf("workers=%d: grouped results differ from the run at 1 worker", workers)
			}
		}
	}
}

// TestRunnerGroupLowestErrorStopsUnits runs two units side by side.
// Task 3 fails first; task 2 fails after it. The run must report task
// 2's error, the lower grid index, and neither unit may start another
// task after the failures.
func TestRunnerGroupLowestErrorStopsUnits(t *testing.T) {
	started2, failed3 := make(chan struct{}), make(chan struct{})
	wait := func(c chan struct{}, what string) error {
		select {
		case <-c:
			return nil
		case <-time.After(5 * time.Second):
			return errors.New(what)
		}
	}
	log := newRunLog()
	e := groupedExperiment("lowest", 8, func(i int) string {
		if i%2 == 0 {
			return "even"
		}
		return "odd"
	}, func(tk Task) error {
		log.record(tk.ID)
		switch tk.ID {
		case 2:
			close(started2)
			if err := wait(failed3, "task 3 never failed"); err != nil {
				return err
			}
			time.Sleep(5 * time.Millisecond) // let task 3's cancel land first
			return errors.New("task 2 failed")
		case 3:
			defer close(failed3)
			if err := wait(started2, "task 2 never started"); err != nil {
				return err
			}
			return errors.New("task 3 failed")
		}
		return nil
	})
	res, err := Runner{Workers: 2}.Run(e)
	if err == nil || !strings.Contains(err.Error(), "task 2 failed") {
		t.Fatalf("want task 2's error (lowest grid index), got %v", err)
	}
	for id := range log.ran {
		if id > 3 {
			t.Errorf("task %d ran after its unit or the run had failed", id)
		}
	}
	if got := ids(res); !reflect.DeepEqual(got, []int{0, 1}) {
		t.Errorf("partial results hold tasks %v, want [0 1]", got)
	}
}

// TestRunnerGroupCancelStopsUnitBetweenTasks cancels the run from
// inside a unit: the unit finishes the task in hand and starts no
// other.
func TestRunnerGroupCancelStopsUnitBetweenTasks(t *testing.T) {
	for _, workers := range []int{1, 2} {
		ctx, cancel := context.WithCancel(context.Background())
		log := newRunLog()
		e := groupedExperiment("cancel", 6, func(int) string { return "all" }, func(tk Task) error {
			log.record(tk.ID)
			if tk.ID == 2 {
				cancel()
			}
			return nil
		})
		res, err := Runner{Workers: workers}.RunContext(ctx, e)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: want context.Canceled, got %v", workers, err)
		}
		if got := ids(res); !reflect.DeepEqual(got, []int{0, 1, 2}) {
			t.Errorf("workers=%d: completed tasks %v, want [0 1 2]", workers, got)
		}
		if len(log.ran) != 3 {
			t.Errorf("workers=%d: %d tasks ran, want 3", workers, len(log.ran))
		}
	}
}

// TestRunnerGroupRunTasksGroupsWithinSubset runs a shard of a grid
// whose groups span the whole grid: units form from the shard's tasks
// only, and the shard's results equal the whole grid's at those IDs.
func TestRunnerGroupRunTasksGroupsWithinSubset(t *testing.T) {
	log := newRunLog()
	e := groupedExperiment("subset", 10, func(i int) string { return fmt.Sprintf("g%d", i%2) }, func(tk Task) error {
		log.record(tk.ID)
		return nil
	})
	shard := []int{2, 3, 5, 7, 9}
	res, err := Runner{Workers: 2, Seed: 4}.RunTasks(context.Background(), e, shard)
	if err != nil {
		t.Fatal(err)
	}
	if got := ids(res); !reflect.DeepEqual(got, shard) {
		t.Fatalf("shard results hold tasks %v, want %v", got, shard)
	}
	if len(log.ran) != len(shard) {
		t.Fatalf("%d tasks ran for a %d-task shard", len(log.ran), len(shard))
	}
	log.checkUnits(t, [][]int{{2}, {3, 5, 7, 9}})
	whole, err := Runner{Workers: 2, Seed: 4}.Run(e)
	if err != nil {
		t.Fatal(err)
	}
	for pos, id := range shard {
		if !reflect.DeepEqual(res[pos], whole[id]) {
			t.Errorf("shard result for task %d differs from the whole-grid run", id)
		}
	}
}

// ids lists the task IDs of results, in order.
func ids(res []Result) []int {
	out := make([]int, len(res))
	for i, r := range res {
		out[i] = r.Task.ID
	}
	return out
}
