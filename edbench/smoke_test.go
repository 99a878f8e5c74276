package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// contract is the part of BENCHMARK.json the benchmark must honour.
type contract struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// TestSmoke runs every workload at the tiny scale, untraced and traced,
// and checks the output against BENCHMARK.json: every end-to-end metric
// (untraced) or per-layer metric (traced) with its unit, nothing else,
// and no failed operation.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binaries under test")
	}
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var want contract
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if len(want.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(want.Workloads), len(workloads))
	}

	root := t.TempDir()
	build := exec.Command("go", "build", "-o", filepath.Join(root, ".bench_build", "bin")+"/",
		"./cmd/edcached", "./cmd/experiments", "./cmd/tracegen")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}

	failFrac := regexp.MustCompile(`(?m)^fail_frac\s+0\s`)
	for _, w := range want.Workloads {
		for _, traced := range []string{"0", "1"} {
			metrics := want.EndToEnd
			if traced == "1" {
				metrics = want.PerLayer
			}
			t.Run(w.Name+"/trace="+traced, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				code := run([]string{"--workload", w.Name, "--seed", "3", "--seconds", "0.1", "--trace", traced,
					"-root", root, "-scale", "tiny"}, &stdout, &stderr)
				if code != 0 {
					t.Fatalf("exit %d\nstderr: %s\nstdout: %s", code, stderr.String(), stdout.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v", err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct=%v failed=%d attempted=%d", res.Correct, res.Failed, res.Attempted)
				}
				if !failFrac.MatchString(stdout.String()) {
					t.Errorf("report lacks fail_frac 0:\n%s", stdout.String())
				}
				for _, m := range metrics {
					got, ok := res.Metrics[m.Name]
					if !ok {
						t.Errorf("metric %s missing", m.Name)
					} else if got.Unit != m.Unit {
						t.Errorf("metric %s unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					}
				}
				if len(res.Metrics) != len(metrics) {
					t.Errorf("%d metrics reported, BENCHMARK.json lists %d", len(res.Metrics), len(metrics))
				}
			})
		}
	}
}
