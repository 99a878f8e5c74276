package core

import (
	"fmt"

	"edcache/internal/cache"
	"edcache/internal/cpu"
	"edcache/internal/trace"
)

// RunShared replays one stream per core through private L1 pairs that
// all feed one shared L2, and returns one Report per core. The system
// must be configured with a second level (Config.L2).
//
// Each core is a one-member replay group whose hierarchy slots share
// the L2; scheduling is cpu.RunShared's deterministic round-robin: each
// round, every live core replays one chunk in core order, its IL1 miss
// traffic reaching the shared L2 before its DL1's — so the L2 observes
// a reproducible interleaving and two identical calls agree bit for
// bit. Per-core counters, timing and phase segmentation are exactly
// those of Run; only the shared L2 state couples the cores.
//
// Accounting caveat: each report prices the full shared-L2 leakage over
// its own core's wall time, so summing reports double-counts the L2's
// static energy (the structure is shared; its leakage is not per-core).
// Interference studies should compare dynamic energy, traffic and miss
// counts, which split exactly.
func (s *System) RunShared(names []string, streams []trace.Stream, m Mode) ([]Report, error) {
	if s.cfg.L2 == nil {
		return nil, fmt.Errorf("core: RunShared needs a second level (Config.L2)")
	}
	if len(streams) == 0 {
		return nil, fmt.Errorf("core: no streams to run")
	}
	if len(names) != len(streams) {
		return nil, fmt.Errorf("core: %d names but %d streams", len(names), len(streams))
	}
	one := []GroupMember{{s, m}}
	l2 := []*cache.Cache{s.newL2Sim()}
	cores := make([]cpu.CorePorts, len(streams))
	ports := make([][2]*multiPort, len(streams))
	for i := range streams {
		il1 := newMultiPort(one, false, l2)
		dl1 := newMultiPort(one, true, l2)
		defer il1.release()
		defer dl1.release()
		ports[i] = [2]*multiPort{il1, dl1}
		cores[i] = cpu.CorePorts{IL1: il1, DL1: dl1}
	}
	stats, err := cpu.RunShared(cpu.Config{MemLatency: s.cfg.MemLatency}, cores, streams)
	if err != nil {
		return nil, err
	}
	reports := make([]Report, len(streams))
	for i := range streams {
		if stats[i][0].Instructions == 0 {
			return nil, fmt.Errorf("core: shared core %d: empty instruction stream %q", i, names[i])
		}
		reports[i] = s.assemble(names[i], m, stats[i][0], ports[i][0].ports[0], ports[i][1].ports[0])
	}
	return reports, nil
}
