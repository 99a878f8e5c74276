package cpu

import (
	"fmt"

	"edcache/internal/trace"
)

// MultiPort is one side (IL1 or DL1) of a lane: one port standing in
// for K cache configurations. AccessBatch must behave exactly as if
// each member performed the ops in order on its own, but
// implementations receive the chunk once, which is the point: the op
// list is built by one classification pass and fanned out to every
// configuration. Members whose outcomes are equal on every op sequence
// — configurations that share cache state — may share one outcome row:
// Row names it, and AccessBatch fills only the rows that own
// themselves. Every batch holds the ops of one phase, whose id comes
// with it: a MultiPort that counts its own events per phase folds the
// batch into that id's counters. An IL1 bank gets one op per fetch
// unless it takes fetch line runs by also implementing RunPort, as
// core's energy bank does; FanPort and core's functional bank do not.
type MultiPort interface {
	// Members returns the number of configurations behind the port.
	Members() int
	// Member returns member k's view for timing: its EDC hit latency,
	// and its second level when it implements TieredPort.
	Member(k int) Port
	// Row returns the member whose outcome row holds member k's
	// outcomes: k itself, or an earlier member whose outcomes equal
	// k's on every op sequence, and which is its own row. The answer
	// is fixed for the life of the port; the lane reads it once.
	Row(k int) int
	// AccessBatch performs the ops in order on every member, setting
	// miss[r][i] to the i-th outcome of the members whose row is r.
	// Each miss[k] has exactly len(ops) entries; rows with Row(k) != k
	// are not read after the call, and their contents are unspecified.
	// phase is the ops' phase id: the stream's annotation, or 0 on an
	// unannotated stream.
	AccessBatch(phase uint8, ops []PortOp, miss [][]bool)
}

// RunPort is an optional MultiPort extension, probed on a lane's IL1
// bank: a bank that implements it takes I-fetch line runs. The lane
// hands it one op per run of consecutive
// fetches on one RunLineBytes-byte line, the run's further fetches
// counted in the op's Rep (cache.Op's contract), instead of one op per
// fetch. A run within the smallest line of the bank is a run within
// every larger line, so each member may perform it as one access: the
// repeats hit the line the first fetch left most recently used. miss
// then holds one entry per run, the first fetch's outcome, and a bank
// that counts its own events counts a run as 1+Rep lookups. Banks that
// are no RunPort — FanPort, and functional banks, where every fetch
// reads its own word — keep one op per fetch. DL1 banks always get one
// op per data access.
type RunPort interface {
	MultiPort
	// RunLineBytes returns the line size, a power of two, that runs are
	// cut at: the smallest L1 line among the bank's members.
	RunLineBytes() int
}

// FanPort adapts K independent BatchPorts into a MultiPort by fanning
// every batch out member by member. It is the generic bank adapter —
// ports that can share work across members (one op conversion, one
// simulator for identical configurations) implement MultiPort directly
// instead. It takes no runs (it is no RunPort): a BatchPort sees one op
// per fetch.
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

// Row implements MultiPort: the members are independent, so each owns
// its row.
func (f *FanPort) Row(k int) int { return k }

// AccessBatch implements MultiPort. The members count no phases, so
// the id is ignored.
func (f *FanPort) AccessBatch(_ uint8, ops []PortOp, miss [][]bool) {
	for k, m := range f.members {
		m.AccessBatch(ops, miss[k])
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
// independent), the cache accesses fan out per member, and misses and
// load-use stalls are counted once per distinct outcome row.
// Phase-annotated streams are counted per phase per member, each bank
// batch carrying its phase id.
func RunMulti(cfg Config, il1, dl1 MultiPort, s trace.Stream) ([]Stats, error) {
	sts, err := RunShared(cfg, []CorePorts{{IL1: il1, DL1: dl1}}, []trace.Stream{s})
	if err != nil {
		return nil, err
	}
	return sts[0], nil
}
