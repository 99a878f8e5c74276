package cpu

import (
	"fmt"

	"edcache/internal/trace"
)

// CorePorts is one core's pair of private L1 banks. The banks may share
// cache state *behind* the L1s with other cores' banks — hierarchy
// ports whose L2 is common — which is exactly the arrangement RunShared
// serialises.
type CorePorts struct {
	IL1 MultiPort
	DL1 MultiPort
}

// RunShared replays one stream per core, interleaving the cores
// round-robin at chunk granularity, and returns one Stats per member of
// each core's banks (out[core][member]).
//
// The schedule is the semantics: in every round each live core replays
// one chunk (up to batchSize instructions) in core order, so any state
// the ports share — a common L2 — observes a deterministic access
// interleaving that is independent of wall-clock or goroutine timing
// (everything runs on the caller's goroutine). Cores whose streams end
// early drop out of the rotation; the rest keep their relative order.
// With fully private ports the result is bit-identical to running each
// (core, stream) through RunMulti alone — the rotation only matters to
// shared state. Phase annotations are honoured per core, exactly as in
// RunMulti.
func RunShared(cfg Config, cores []CorePorts, streams []trace.Stream) ([][]Stats, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(cores) == 0 {
		return nil, fmt.Errorf("cpu: no cores to run")
	}
	if len(cores) != len(streams) {
		return nil, fmt.Errorf("cpu: %d cores but %d streams", len(cores), len(streams))
	}
	lanes := make([]*lane, len(cores))
	for i, c := range cores {
		l, err := newLane(cfg, c.IL1, c.DL1, streams[i])
		if err != nil {
			if len(cores) > 1 {
				err = fmt.Errorf("core %d: %w", i, err)
			}
			return nil, err
		}
		lanes[i] = l
	}
	return replay(lanes), nil
}
