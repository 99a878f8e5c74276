package cpu

import (
	"fmt"

	"edcache/internal/trace"
)

// MultiPort is one side (IL1 or DL1) of a lane: one port standing in
// for K cache configurations. AccessBatch must behave exactly as if
// each member performed the ops in order on its own — miss[k][i] is
// member k's outcome for op i — but implementations receive the chunk
// once, which is the point: the op list is built by one classification
// pass and fanned out to every configuration. A MultiPort that also
// implements PhasePort is notified once per phase boundary and fans the
// notification out to its members itself.
type MultiPort interface {
	// Members returns the number of configurations behind the port.
	Members() int
	// Member returns member k's view for timing: its EDC hit latency,
	// and its second level when it implements TieredPort.
	Member(k int) Port
	// AccessBatch performs the ops in order on every member, setting
	// miss[k][i] to member k's i-th outcome. Each miss[k] has exactly
	// len(ops) entries.
	AccessBatch(ops []PortOp, miss [][]bool)
}

// FanPort adapts K independent BatchPorts into a MultiPort by fanning
// every batch out member by member. It is the generic bank adapter —
// ports that can share work across members (one op conversion, one
// simulator for identical configurations) implement MultiPort directly
// instead.
type FanPort struct {
	members []BatchPort
}

// NewFanPort builds the adapter. Members must be non-nil and must not
// be driven outside the fan while it is in use.
func NewFanPort(members ...BatchPort) (*FanPort, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("cpu: empty fan port")
	}
	for k, m := range members {
		if m == nil {
			return nil, fmt.Errorf("cpu: nil fan port member %d", k)
		}
	}
	return &FanPort{members: members}, nil
}

// Members implements MultiPort.
func (f *FanPort) Members() int { return len(f.members) }

// Member implements MultiPort, forwarding the member port itself (so a
// TieredPort member keeps its two-level timing inside the bank).
func (f *FanPort) Member(k int) Port { return f.members[k] }

// AccessBatch implements MultiPort.
func (f *FanPort) AccessBatch(ops []PortOp, miss [][]bool) {
	for k, m := range f.members {
		m.AccessBatch(ops, miss[k])
	}
}

// BeginPhase implements PhasePort, forwarding to every member that
// segments itself.
func (f *FanPort) BeginPhase(id uint8) {
	for _, m := range f.members {
		if p, ok := m.(PhasePort); ok {
			p.BeginPhase(id)
		}
	}
}

// RunMulti replays the stream once through K cache configurations and
// returns one Stats per member, each bit-identical to what Run would
// produce for that member alone. il1 and dl1 must agree on the member
// count; member k of each side belongs to the same configuration.
//
// This is the single-pass sweep engine's cpu layer, one lane of the
// replay loop: the stream is walked once, each chunk is classified
// once (the instruction mix and op lists are configuration-
// independent), and only the cache accesses and outcome tallies fan
// out per member. Phase-annotated streams are segmented per member with
// one BeginPhase per phase-aware bank per boundary.
func RunMulti(cfg Config, il1, dl1 MultiPort, s trace.Stream) ([]Stats, error) {
	sts, err := RunShared(cfg, []CorePorts{{IL1: il1, DL1: dl1}}, []trace.Stream{s})
	if err != nil {
		return nil, err
	}
	return sts[0], nil
}
