package experiments

import (
	"math/rand"
	"testing"

	"edcache/internal/sim"
)

func TestParseL2Geometries(t *testing.T) {
	gs, err := ParseL2Geometries("128x8, 512x8,16x2")
	if err != nil {
		t.Fatal(err)
	}
	want := []L2Geometry{{128, 8}, {512, 8}, {16, 2}}
	if len(gs) != len(want) {
		t.Fatalf("parsed %v, want %v", gs, want)
	}
	for i := range want {
		if gs[i] != want[i] {
			t.Errorf("geometry %d = %v, want %v", i, gs[i], want[i])
		}
		if gs[i].String() == "" {
			t.Errorf("geometry %d has empty label", i)
		}
	}
	for _, bad := range []string{"", "128", "x8", "128x", "128xeight", "ax8"} {
		if _, err := ParseL2Geometries(bad); err == nil {
			t.Errorf("bad spec %q accepted", bad)
		}
	}
}

// TestHierGridShape pins the sweep axes: geometries × protections ×
// workloads for hier-epi, geometries × pairs for shared-l2.
func TestHierGridShape(t *testing.T) {
	o := Options{Instructions: 1000}.withDefaults()
	if got, want := len(hierEPIExperiment(o).Grid()), len(o.L2Geometries)*len(l2Protections)*len(hierWorkloads); got != want {
		t.Errorf("hier-epi grid has %d tasks, want %d", got, want)
	}
	if got, want := len(sharedL2Experiment(o).Grid()), len(o.L2Geometries)*len(sharedPairs); got != want {
		t.Errorf("shared-l2 grid has %d tasks, want %d", got, want)
	}
}

// TestHierOffAxisTaskFails runs hier-epi tasks whose L2 geometry or
// protection is not on the run's axes: each must fail with an error,
// never index the hier group out of range.
func TestHierOffAxisTaskFails(t *testing.T) {
	o := Options{Instructions: 1000}.withDefaults()
	e := hierEPIExperiment(o)
	for _, params := range []map[string]string{
		sim.P("l2", "32x2", "prot", "none", "workload", "gsm_c", "mode", "HP"),
		sim.P("l2", o.L2Geometries[0].String(), "prot", "parity", "workload", "gsm_c", "mode", "HP"),
	} {
		if _, err := e.Run(sim.Task{Params: params}, rand.New(rand.NewSource(1))); err == nil {
			t.Errorf("off-axis task %v: no error", params)
		}
	}
}
