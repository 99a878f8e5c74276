package core

import (
	"reflect"
	"sync"
	"testing"

	"edcache/internal/bench"
	"edcache/internal/yield"
)

// TestSystemConcurrentRuns verifies the System immutability contract:
// one sized System serving many concurrent Run calls produces exactly
// the reports a serial loop does (run under -race in CI).
func TestSystemConcurrentRuns(t *testing.T) {
	sys, err := NewSystem(PaperConfig(yield.ScenarioA, Proposed))
	if err != nil {
		t.Fatal(err)
	}
	ws := bench.Small()
	for i := range ws {
		ws[i] = ws[i].ScaledTo(5_000)
	}

	serial := make([]Report, len(ws))
	for i, w := range ws {
		if serial[i], err = sys.Run(w, ModeULE); err != nil {
			t.Fatal(err)
		}
	}

	const rounds = 4 // several goroutines per workload to provoke races
	var wg sync.WaitGroup
	concurrent := make([]Report, rounds*len(ws))
	errs := make([]error, rounds*len(ws))
	for r := 0; r < rounds; r++ {
		for i, w := range ws {
			wg.Add(1)
			go func(slot int, w bench.Workload) {
				defer wg.Done()
				concurrent[slot], errs[slot] = sys.Run(w, ModeULE)
			}(r*len(ws)+i, w)
		}
	}
	wg.Wait()
	for slot, err := range errs {
		if err != nil {
			t.Fatalf("concurrent run %d: %v", slot, err)
		}
	}
	for r := 0; r < rounds; r++ {
		for i := range ws {
			if !reflect.DeepEqual(concurrent[r*len(ws)+i], serial[i]) {
				t.Fatalf("concurrent report for %s differs from serial", ws[i].Name)
			}
		}
	}
}

// TestRunPairsWorkerCountInvariance protects the order-stable
// aggregation: Pairs must return identical pairs for any pool size.
func TestRunPairsWorkerCountInvariance(t *testing.T) {
	ws := bench.Small()
	for i := range ws {
		ws[i] = ws[i].ScaledTo(5_000)
	}
	base, err := Pairs(yield.ScenarioA, ModeULE, ws, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		got, err := Pairs(yield.ScenarioA, ModeULE, ws, nil, workers)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(base, got) {
			t.Fatalf("Pairs(%d workers) differs from serial", workers)
		}
	}
}

// BenchmarkRunPairsWorkers measures the workload fan-out speedup of the
// engine (acceptance: >1.5x at 4 workers on a multi-core host):
//
//	go test -bench RunPairsWorkers -benchtime 3x ./internal/core
func BenchmarkRunPairsWorkers(b *testing.B) {
	ws := bench.Big()
	for i := range ws {
		ws[i] = ws[i].ScaledTo(300_000)
	}
	for _, workers := range []int{1, 2, 4} {
		b.Run(map[int]string{1: "1", 2: "2", 4: "4"}[workers], func(b *testing.B) {
			for n := 0; n < b.N; n++ {
				if _, err := Pairs(yield.ScenarioA, ModeHP, ws, nil, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
