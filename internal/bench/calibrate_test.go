package bench

import (
	"testing"

	"edcache/internal/cache"
	"edcache/internal/trace"
)

func TestCalibrateFootprint(t *testing.T) {
	paper := cache.Config{Sets: 32, Ways: 8, LineBytes: 32} // 8 KB
	cases := []struct {
		mult float64
		want int
	}{
		{1, 8192},
		{2, 16384},
		{8, 65536},
		{0.5, 4096},
		{0, 64},       // floor: two lines
		{0.001, 64},   // rounds up to the floor
		{1.001, 8224}, // rounds up to a whole line
	}
	for _, c := range cases {
		if got := CalibrateFootprint(paper, c.mult); got != c.want {
			t.Errorf("CalibrateFootprint(paper, %g) = %d, want %d", c.mult, got, c.want)
		}
	}
	// A different geometry shifts every footprint with it — the point of
	// calibration.
	small := cache.Config{Sets: 16, Ways: 2, LineBytes: 16} // 512 B
	if got := CalibrateFootprint(small, 2); got != 1024 {
		t.Errorf("CalibrateFootprint(small, 2) = %d, want 1024", got)
	}
}

func TestCalibratedCorpusTracksGeometry(t *testing.T) {
	cfg := cache.Config{Sets: 32, Ways: 8, LineBytes: 32}
	ws := CalibratedCorpus(cfg)
	if len(ws) != 6 {
		t.Fatalf("calibrated corpus has %d entries, want 6 (2 families × 3 capacity points)", len(ws))
	}
	byName := map[string]Workload{}
	for _, w := range ws {
		byName[w.Name] = w
		if w.DataBytes < cfg.SizeBytes() {
			t.Errorf("%s: footprint %d below the fit point %d", w.Name, w.DataBytes, cfg.SizeBytes())
		}
		// Every instance must generate a usable stream.
		if n := trace.Count(w.ScaledTo(100).Stream()); n != 100 {
			t.Errorf("%s: generated %d instructions, want 100", w.Name, n)
		}
	}
	if fit, x8 := byName["cal_stencil_fit"], byName["cal_stencil_x8"]; x8.DataBytes != 8*fit.DataBytes {
		t.Errorf("stencil x8 footprint %d is not 8× the fit footprint %d", x8.DataBytes, fit.DataBytes)
	}
	// Calibrated instances are deliberately not registered.
	if _, err := ByName("cal_stencil_fit"); err == nil {
		t.Error("calibrated instance leaked into the registered corpus")
	}
}
