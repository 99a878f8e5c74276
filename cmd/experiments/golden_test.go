package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/golden from the current build")

// goldenCases are the committed reference outputs: the whole registry
// as text and JSON, the file-backed sweeps over a small phase-annotated
// indexed trace (testdata/phased_mix.trace, made by
// `tracegen -workload phased_mix -instructions 45000 -phases`), and the
// hierarchy sweeps at two and at three custom L2 geometries. They pin every printed
// number independently of the code that produces it, so a refactor of
// the replay engine is checked against the bytes it must keep, not
// against a second path of the same build.
var goldenCases = []struct {
	file string
	args []string
}{
	{"all.txt", []string{"-run", "all", "-instructions", "20000", "-trials", "200", "-seed", "1"}},
	{"all.json", []string{"-run", "all", "-instructions", "20000", "-trials", "200", "-seed", "1", "-format", "json"}},
	{"trace.txt", []string{"-run", "corpus,corpus-miss,phase-epi", "-instructions", "20000", "-seed", "1",
		"-trace", filepath.Join("testdata", "phased_mix.trace")}},
	{"hier.txt", []string{"-run", "hier-epi,shared-l2", "-l2", "64x4,256x8", "-instructions", "20000", "-seed", "1"}},
	{"hier3.txt", []string{"-run", "hier-epi,shared-l2", "-l2", "64x4,128x8,512x16", "-instructions", "20000", "-seed", "1"}},
}

// TestGoldenOutputs compares the driver's output with the committed
// files byte for byte, floats included; `go test -run Golden -update`
// regenerates them. The comparison is exact by design and therefore
// pinned to amd64: on arm64 (and other targets with fused multiply-add
// instructions) the Go compiler may fuse a*b+c into one rounding step,
// which legitimately moves the last bits of some energy figures. The
// files are generated and checked on amd64, CI's architecture.
func TestGoldenOutputs(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden bytes are pinned to amd64 (fused multiply-add on %s may change float rounding)", runtime.GOARCH)
	}
	for _, tc := range goldenCases {
		t.Run(tc.file, func(t *testing.T) {
			var out bytes.Buffer
			if err := run(append(tc.args, "-workers", "2"), &out); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", "golden", tc.file)
			if *update {
				if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to create it)", err)
			}
			if !bytes.Equal(out.Bytes(), want) {
				t.Errorf("output differs from %s:\n%s", path, firstDiff(want, out.Bytes()))
			}
		})
	}
}

// firstDiff describes the first differing line of two outputs.
func firstDiff(want, got []byte) string {
	wl, gl := bytes.Split(want, []byte("\n")), bytes.Split(got, []byte("\n"))
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g []byte
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if !bytes.Equal(w, g) {
			return fmt.Sprintf("line %d:\n  want: %s\n  got:  %s", i+1, w, g)
		}
	}
	return "outputs differ only in length"
}
