package experiments

import "testing"

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
	for _, bad := range []string{"", "128", "x8", "128x", "128xeight", "ax8", "64x4,64x4", "128x8,16x2,128x8"} {
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
