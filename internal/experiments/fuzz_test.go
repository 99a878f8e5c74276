package experiments

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"edcache/internal/ecc"
)

// FuzzParseL2Geometries feeds arbitrary -l2 flag values to the parser:
// it must never panic, every geometry it accepts must be one the
// hierarchy can build, hold at most 64 MiB and appear once on the list,
// and the accepted list must print (one String() per geometry,
// comma-joined) to a spec that parses back to itself.
func FuzzParseL2Geometries(f *testing.F) {
	for _, seed := range []string{
		"128x8,512x8", "128x8, 512x8,16x2", "", ",", "128", "x8", "128x",
		"3x8", "0x8", "128x0", "128x65", "+128x08", "-128x8", "1x1", "9223372036854775807x64",
		"64x4,64x4", "1073741824x64", "4611686018427387904x64", "262144x8",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		gs, err := ParseL2Geometries(spec)
		if err != nil {
			return
		}
		labels := make([]string, len(gs))
		for i, g := range gs {
			cfg := hierConfig(g, 1, ecc.KindNone)
			if err := cfg.L2.Validate(cfg); err != nil {
				t.Fatalf("%q: accepted geometry %v fails validation: %v", spec, g, err)
			}
			if g.Sets > 64<<20/32/g.Ways {
				t.Fatalf("%q: accepted geometry %v holds more than 64 MiB of 32 B lines", spec, g)
			}
			if slices.Contains(gs[:i], g) {
				t.Fatalf("%q: accepted geometry %v twice", spec, g)
			}
			labels[i] = g.String()
		}
		printed := strings.Join(labels, ",")
		back, err := ParseL2Geometries(printed)
		if err != nil {
			t.Fatalf("%q: printed as %q, which does not parse: %v", spec, printed, err)
		}
		if !reflect.DeepEqual(back, gs) {
			t.Fatalf("%q: printed as %q, which parses to %v, not %v", spec, printed, back, gs)
		}
	})
}
