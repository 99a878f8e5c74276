package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"edcache/internal/bench"
	"edcache/internal/trace"
)

func TestHybridsimSingleRun(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-workload", "adpcm_c", "-instructions", "3000"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"configuration A/proposed at ULE mode", "EPI component", "L1 leakage"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

func TestHybridsimCompare(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-compare", "-instructions", "3000", "-scenario", "B", "-mode", "HP", "-workload", "gsm_c"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "proposed vs baseline") {
		t.Fatalf("compare output missing delta row:\n%s", out.String())
	}
}

func TestHybridsimList(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-list"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "mpeg2_d") {
		t.Fatalf("-list missing workloads:\n%s", out.String())
	}
}

func TestHybridsimBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-scenario", "Z"},
		{"-mode", "turbo"},
		{"-design", "imaginary"},
		{"-workload", "nope", "-instructions", "1000"},
		{"-instructions", "-5"},
	} {
		if err := run(args, &bytes.Buffer{}); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

// writeTrace captures a workload at n instructions as tracegen writes
// it by default: v2 with per-chunk checksums and a chunk index.
func writeTrace(t *testing.T, name string, n int) string {
	t.Helper()
	w, err := bench.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), name+".trace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := trace.WriteV2(f, w.ScaledTo(n).Stream(), trace.V2Options{Checksums: true, Index: true}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// runCSV runs hybridsim with CSV output, which carries every metric and
// no workload label, so a file and its generator compare byte for byte.
func runCSV(t *testing.T, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	if err := run(append(args, "-format", "csv"), &out); err != nil {
		t.Fatal(err)
	}
	return out.String()
}

func TestHybridsimTraceMatchesWorkload(t *testing.T) {
	path := writeTrace(t, "gsm_c", 3000)
	fromFile := runCSV(t, "-trace", path, "-mode", "HP")
	fromGen := runCSV(t, "-workload", "gsm_c", "-instructions", "3000", "-mode", "HP")
	if fromFile != fromGen {
		t.Errorf("-trace of a gsm_c capture differs from -workload gsm_c:\n%s\nvs\n%s", fromFile, fromGen)
	}
}

func TestHybridsimCompareTrace(t *testing.T) {
	path := writeTrace(t, "adpcm_c", 3000)
	out := runCSV(t, "-compare", "-trace", path)
	for _, want := range []string{"A/baseline ULE", "A/proposed ULE", "proposed vs baseline"} {
		if !strings.Contains(out, want) {
			t.Errorf("-compare -trace output missing %q:\n%s", want, out)
		}
	}
	if gen := runCSV(t, "-compare", "-workload", "adpcm_c", "-instructions", "3000"); out != gen {
		t.Errorf("-compare -trace differs from -compare -workload:\n%s\nvs\n%s", out, gen)
	}
}

// TestHybridsimCorruptTrace: a damaged chunk fails the run with the
// trace reader's own error, naming the file, not a complaint about an
// empty instruction stream.
func TestHybridsimCorruptTrace(t *testing.T) {
	path := writeTrace(t, "adpcm_c", 3000)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	err = run([]string{"-trace", path}, &bytes.Buffer{})
	if !errors.Is(err, trace.ErrChunkCRC) {
		t.Fatalf("corrupt trace: err = %v, want one wrapping %v", err, trace.ErrChunkCRC)
	}
	if !strings.Contains(err.Error(), path) {
		t.Errorf("corrupt trace error %q does not name the file", err)
	}
}
