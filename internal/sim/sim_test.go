package sim

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// rngExperiment exercises per-task RNG determinism: each task draws
// from its seeded rng and reports the value.
func rngExperiment(n int) Def {
	return Def{
		ExpName: "rng",
		Desc:    "test experiment",
		GridFn: func() []Task {
			tasks := make([]Task, n)
			for i := range tasks {
				tasks[i] = Task{Label: fmt.Sprintf("t%d", i), Params: P("i", fmt.Sprint(i))}
			}
			return tasks
		},
		RunFn: func(t Task, rng *rand.Rand) (Result, error) {
			return Result{Metrics: []Metric{Num("draw", rng.Float64())}}, nil
		},
	}
}

func TestRunnerDeterministicAcrossWorkerCounts(t *testing.T) {
	exp := rngExperiment(37)
	base, err := Runner{Workers: 1, Seed: 7}.Run(exp)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8, 16} {
		got, err := Runner{Workers: workers, Seed: 7}.Run(exp)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(base, got) {
			t.Fatalf("results differ between 1 and %d workers", workers)
		}
	}
}

func TestRunnerSeedChangesResults(t *testing.T) {
	exp := rngExperiment(5)
	a, _ := Runner{Seed: 1}.Run(exp)
	b, _ := Runner{Seed: 2}.Run(exp)
	if reflect.DeepEqual(a, b) {
		t.Fatal("different master seeds produced identical draws")
	}
}

func TestRunnerCollectsByIndexAndFillsTaskFields(t *testing.T) {
	res, err := Runner{Workers: 8, Seed: 3}.Run(rngExperiment(12))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 12 {
		t.Fatalf("got %d results, want 12", len(res))
	}
	for i, r := range res {
		if r.Task.ID != i {
			t.Errorf("result %d has task ID %d", i, r.Task.ID)
		}
		if r.Task.Label != fmt.Sprintf("t%d", i) {
			t.Errorf("result %d out of order: label %q", i, r.Task.Label)
		}
		if r.Experiment != "rng" {
			t.Errorf("result %d missing experiment name", i)
		}
		if r.Task.Seed == 0 {
			t.Errorf("result %d has no derived seed", i)
		}
	}
}

func TestRunnerPropagatesErrors(t *testing.T) {
	boom := errors.New("boom")
	exp := Def{
		ExpName: "failing",
		GridFn: func() []Task {
			return []Task{{Label: "ok"}, {Label: "bad"}, {Label: "ok2"}}
		},
		RunFn: func(t Task, _ *rand.Rand) (Result, error) {
			if t.Label == "bad" {
				return Result{}, boom
			}
			return Result{}, nil
		},
	}
	_, err := Runner{Workers: 4}.Run(exp)
	if !errors.Is(err, boom) {
		t.Fatalf("error %v does not wrap the task error", err)
	}
	if !strings.Contains(fmt.Sprint(err), "failing [bad]") {
		t.Fatalf("error %v does not name the failing task", err)
	}
}

func TestRunnerFinishHook(t *testing.T) {
	exp := Def{
		ExpName: "finishing",
		GridFn:  func() []Task { return []Task{{Label: "a"}, {Label: "b"}} },
		RunFn: func(t Task, _ *rand.Rand) (Result, error) {
			return Result{Metrics: []Metric{Num("v", 2)}}, nil
		},
		FinishFn: func(results []Result) ([]Result, error) {
			sum := 0.0
			for _, r := range results {
				m, _ := r.Metric("v")
				sum += m.Value
			}
			return append(results, Result{Task: Task{Label: "sum"}, Metrics: []Metric{Num("v", sum)}}), nil
		},
	}
	res, err := Runner{}.Run(exp)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("got %d results, want 2 tasks + 1 summary", len(res))
	}
	m, _ := res[2].Metric("v")
	if m.Value != 4 {
		t.Fatalf("summary = %v, want 4", m.Value)
	}
	if res[2].Experiment != "finishing" {
		t.Fatalf("summary row missing experiment name: %q", res[2].Experiment)
	}
}

func TestMapOrderAndConcurrency(t *testing.T) {
	var inFlight, peak atomic.Int32
	out, err := Map(4, 100, func(i int) (int, error) {
		cur := inFlight.Add(1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		defer inFlight.Add(-1)
		return i * i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*i)
		}
	}
	if peak.Load() > 4 {
		t.Fatalf("observed %d concurrent calls with 4 workers", peak.Load())
	}
}

func TestMapError(t *testing.T) {
	err3, err7 := errors.New("index 3"), errors.New("index 7")
	for _, workers := range []int{1, 4, 8} {
		_, err := Map(workers, 64, func(i int) (int, error) {
			switch i {
			case 3:
				time.Sleep(20 * time.Millisecond) // let index 7 fail first
				return 0, err3
			case 7:
				return 0, err7
			}
			return i, nil
		})
		if !errors.Is(err, err3) {
			t.Fatalf("workers=%d: Map error = %v, want the lowest index's", workers, err)
		}
	}
}

func TestMapStopsDispatchAfterError(t *testing.T) {
	const n = 10000
	boom := errors.New("boom")
	for _, workers := range []int{4, 8} {
		var calls atomic.Int32
		_, err := Map(workers, n, func(i int) (int, error) {
			calls.Add(1)
			if i == 0 {
				return 0, boom
			}
			time.Sleep(10 * time.Microsecond)
			return i, nil
		})
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: Map error = %v, want boom", workers, err)
		}
		if c := calls.Load(); c >= n/10 {
			t.Fatalf("workers=%d: fn ran %d of %d times after index 0 failed", workers, c, n)
		}
	}
}

func TestSubSeedStability(t *testing.T) {
	a := SubSeed(42, "exp", 3)
	if a != SubSeed(42, "exp", 3) {
		t.Fatal("SubSeed is not deterministic")
	}
	seen := map[int64]bool{a: true}
	for _, d := range []int64{SubSeed(43, "exp", 3), SubSeed(42, "other", 3), SubSeed(42, "exp", 4)} {
		if seen[d] {
			t.Fatalf("SubSeed collision: %d", d)
		}
		seen[d] = true
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	r.MustRegister(Def{ExpName: "alpha"})
	r.MustRegister(Def{ExpName: "beta"})
	r.MustRegister(Def{ExpName: "beam"})
	if err := r.Register(Def{ExpName: "alpha"}); err == nil {
		t.Fatal("duplicate registration accepted")
	}
	if got := r.Names(); !reflect.DeepEqual(got, []string{"alpha", "beta", "beam"}) {
		t.Fatalf("Names() = %v, not registration order", got)
	}

	names, err := r.Resolve("all")
	if err != nil || len(names) != 3 {
		t.Fatalf("Resolve(all) = %v, %v", names, err)
	}
	names, err = r.Resolve("alpha,beta")
	if err != nil || !reflect.DeepEqual(names, []string{"alpha", "beta"}) {
		t.Fatalf("Resolve list = %v, %v", names, err)
	}
	// Unique prefix resolves; ambiguous prefix and unknown name error.
	names, err = r.Resolve("al")
	if err != nil || !reflect.DeepEqual(names, []string{"alpha"}) {
		t.Fatalf("Resolve prefix = %v, %v", names, err)
	}
	if _, err := r.Resolve("be"); err == nil {
		t.Fatal("ambiguous prefix accepted")
	}
	if _, err := r.Resolve("nope"); err == nil {
		t.Fatal("unknown name accepted")
	}
	// A name selected twice, exactly or by prefix, runs once, in the
	// order of its first mention.
	for sel, want := range map[string][]string{
		"alpha,alpha":      {"alpha"},
		"beta,al,alpha":    {"beta", "alpha"},
		"beam,alpha,beam":  {"beam", "alpha"},
		"al, alpha ,beta,": {"alpha", "beta"},
	} {
		names, err := r.Resolve(sel)
		if err != nil || !reflect.DeepEqual(names, want) {
			t.Fatalf("Resolve(%q) = %v, %v; want %v", sel, names, err, want)
		}
	}
}

func testResults() []Result {
	return []Result{
		{
			Experiment: "demo",
			Task:       Task{ID: 0, Label: "p=1", Params: P("p", "1")},
			Metrics:    []Metric{Num("x", 1.5), Fmt("pct", 42.0, "%.1f%%"), NumU("e", 3.25, "pJ")},
		},
		{
			Experiment: "demo",
			Task:       Task{ID: 1, Label: "p=2", Params: P("p", "2")},
			Metrics:    []Metric{Num("x", 2.5), Fmt("pct", 43.0, "%.1f%%"), NumU("e", 4.25, "pJ")},
			Detail:     "detail block\n",
		},
	}
}

func TestTextSink(t *testing.T) {
	var b bytes.Buffer
	if err := (&TextSink{W: &b}).Write(testResults()); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"========== demo ==========", "p=1", "42.0%", "pJ", "detail block"} {
		if !strings.Contains(out, want) {
			t.Errorf("text output missing %q:\n%s", want, out)
		}
	}
	// One table: the header row appears exactly once.
	if strings.Count(out, "task") != 1 {
		t.Errorf("expected a single merged table:\n%s", out)
	}
}

func TestJSONSinkRoundTrips(t *testing.T) {
	var b bytes.Buffer
	if err := (&JSONSink{W: &b}).Write(testResults()); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"experiment": "demo"`, `"label": "p=1"`, `"value": 1.5`, `"unit": "pJ"`} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("json output missing %q:\n%s", want, b.String())
		}
	}
}

func TestCSVSink(t *testing.T) {
	var b bytes.Buffer
	if err := (&CSVSink{W: &b}).Write(testResults()); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 1+6 { // header + 3 metrics × 2 results
		t.Fatalf("got %d CSV lines, want 7:\n%s", len(lines), b.String())
	}
	if lines[0] != "experiment,task,params,metric,value,unit,text" {
		t.Fatalf("unexpected CSV header %q", lines[0])
	}
	if !strings.Contains(lines[1], "demo,p=1,p=1,x,1.5") {
		t.Fatalf("unexpected first CSV row %q", lines[1])
	}
}

func TestNewSinkUnknownFormat(t *testing.T) {
	if _, err := NewSink("xml", &bytes.Buffer{}); err == nil {
		t.Fatal("unknown format accepted")
	}
}
