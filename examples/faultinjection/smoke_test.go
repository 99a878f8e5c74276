package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/output.golden from the current build")

// TestMainSmoke runs the example end-to-end — it fails on any panic or
// log.Fatal inside it — and pins its whole output (fault map, codec
// sweeps, the functional replay's timing and correction counts) to
// testdata/output.golden. The example is deterministic (its dice and
// data come from the fixed seeds 2013 and 42), so a change in the bytes
// is a change in the functional layer. `go test -run Smoke -update`
// rewrites the file; like the experiments goldens, the comparison is
// pinned to amd64, where the file is generated.
func TestMainSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("example smoke test skipped in -short mode")
	}
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stdout
	os.Stdout = f
	func() {
		defer func() { os.Stdout = old }()
		main()
	}()
	f.Close()
	got, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden bytes are pinned to amd64 (fused multiply-add on %s may change float rounding)", runtime.GOARCH)
	}
	path := filepath.Join("testdata", "output.golden")
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output differs from %s:\n got:\n%s\nwant:\n%s", path, got, want)
	}
}
