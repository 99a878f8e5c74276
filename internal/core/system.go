package core

import (
	"fmt"
	"slices"

	"edcache/internal/bench"
	"edcache/internal/bitcell"
	"edcache/internal/cache"
	"edcache/internal/cpu"
	"edcache/internal/ecc"
	"edcache/internal/energy"
	"edcache/internal/yield"
)

// System is one fully-sized instance of the evaluation platform: an
// in-order core with hybrid IL1 and DL1 caches, built by running the
// design methodology of Section III-C for the requested configuration.
//
// A System is immutable after NewSystem: every replay allocates fresh
// per-run cache and port state and only reads the sized arrays and
// codec models, so one System may serve any number of concurrent runs —
// the contract the sim engine's worker pool relies on.
type System struct {
	cfg    Config
	sizing yield.Result

	hpArray  energy.WayArray // one HP way's storage arrays
	uleArray energy.WayArray // one ULE way's storage arrays

	secded energy.CodecModel // data-word SECDED codec (zero if unused)
	dected energy.CodecModel // data-word DECTED codec (zero if unused)
	tagSEC energy.CodecModel
	tagDEC energy.CodecModel

	// Second-level models, meaningful only when cfg.L2 is set: one L2
	// way's storage arrays (HP cells — the level stays powered in both
	// modes) and the level's own codec pair per its Protection policy.
	l2Array energy.WayArray
	l2Data  energy.CodecModel
	l2Tag   energy.CodecModel
}

// NewSystem sizes and assembles a system for the configuration.
func NewSystem(cfg Config) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sizing, err := yield.Run(yield.Input{
		Scenario:    cfg.Scenario,
		Way:         yield.WayGeometry{Lines: cfg.Sets, WordsPerLine: cfg.WordsPerLine(), DataBits: cfg.DataWordBits, TagBits: cfg.TagWordBits},
		VccHP:       cfg.VccHP,
		VccULE:      cfg.VccULE,
		TargetYield: cfg.TargetYield,
	})
	if err != nil {
		return nil, fmt.Errorf("core: design methodology failed: %w", err)
	}
	s := &System{cfg: cfg, sizing: sizing}

	hpCheck := cfg.hpWayCode().CheckBits()
	s.hpArray = energy.WayArray{
		Cell:  sizing.HPCell,
		Lines: cfg.Sets, WordsPerLine: cfg.WordsPerLine(),
		DataBits: cfg.DataWordBits, DataCheck: hpCheck,
		TagBits: cfg.TagWordBits, TagCheck: hpCheck,
	}

	uleCell := sizing.BaselineCell
	uleCheck := cfg.Scenario.BaselineCode().CheckBits()
	if cfg.Design == Proposed {
		uleCell = sizing.ProposedCell
		uleCheck = cfg.Scenario.ProposedCode().CheckBits()
	}
	s.uleArray = energy.WayArray{
		Cell:  uleCell,
		Lines: cfg.Sets, WordsPerLine: cfg.WordsPerLine(),
		DataBits: cfg.DataWordBits, DataCheck: uleCheck,
		TagBits: cfg.TagWordBits, TagCheck: uleCheck,
	}

	// Codec hardware present in this configuration (per cache).
	if cfg.hpWayCode() == ecc.KindSECDED || cfg.uleWayCode(ModeULE) == ecc.KindSECDED {
		s.secded = energy.NewCodecModel(ecc.KindSECDED, cfg.DataWordBits)
		s.tagSEC = energy.NewCodecModel(ecc.KindSECDED, cfg.TagWordBits)
	}
	if cfg.uleWayCode(ModeULE) == ecc.KindDECTED {
		s.dected = energy.NewCodecModel(ecc.KindDECTED, cfg.DataWordBits)
		s.tagDEC = energy.NewCodecModel(ecc.KindDECTED, cfg.TagWordBits)
	}
	if cfg.L2 != nil {
		check := cfg.L2.Protection.CheckBits()
		s.l2Array = energy.WayArray{
			Cell:  sizing.HPCell,
			Lines: cfg.L2.Sets, WordsPerLine: cfg.L2.LineBytes * 8 / cfg.DataWordBits,
			DataBits: cfg.DataWordBits, DataCheck: check,
			TagBits: cfg.TagWordBits, TagCheck: check,
		}
		if cfg.L2.Protection != ecc.KindNone {
			s.l2Data = energy.NewCodecModel(cfg.L2.Protection, cfg.DataWordBits)
			s.l2Tag = energy.NewCodecModel(cfg.L2.Protection, cfg.TagWordBits)
		}
	}
	return s, nil
}

// MustNewSystem is NewSystem, panicking on error.
func MustNewSystem(cfg Config) *System {
	s, err := NewSystem(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Config returns the system's configuration.
func (s *System) Config() Config { return s.cfg }

// Sizing returns the design-methodology result the system was built from.
func (s *System) Sizing() yield.Result { return s.sizing }

// HPWayArray returns the energy model of one HP way.
func (s *System) HPWayArray() energy.WayArray { return s.hpArray }

// ULEWayArray returns the energy model of one ULE way.
func (s *System) ULEWayArray() energy.WayArray { return s.uleArray }

// activeCodecs returns the data-word and tag-word codec models active in
// the given mode (zero-valued models when no coding is active).
func (s *System) activeCodecs(m Mode) (data, tag energy.CodecModel) {
	switch s.cfg.uleWayCode(m) {
	case ecc.KindDECTED:
		return s.dected, s.tagDEC
	case ecc.KindSECDED:
		return s.secded, s.tagSEC
	default:
		// Scenario A at HP mode: proposed turns SECDED off; baseline
		// has nothing. Scenario B HP is SECDED (handled above).
		return energy.CodecModel{}, energy.CodecModel{}
	}
}

// uleReadBits returns the data/tag bits sensed per access in a ULE way
// for the given mode. Scenario A's proposed way power-gates its whole
// check-column segment at HP mode (coding fully off); scenario B's
// proposed way is SECDED-active at HP but physically laid out as one
// interleaved DECTED row, so the full row toggles on every access.
func (s *System) uleReadBits(m Mode) (dataBits, tagBits int) {
	code := s.cfg.uleWayCode(m)
	switch {
	case code == ecc.KindNone:
		return s.cfg.DataWordBits, s.cfg.TagWordBits
	case s.cfg.Design == Proposed && s.cfg.Scenario == yield.ScenarioB && m == ModeHP:
		full := s.cfg.Scenario.ProposedCode().CheckBits()
		return s.cfg.DataWordBits + full, s.cfg.TagWordBits + full
	default:
		return s.cfg.DataWordBits + code.CheckBits(), s.cfg.TagWordBits + code.CheckBits()
	}
}

// hpReadBits returns the bits sensed per access in an HP way (only
// meaningful at HP mode; HP ways are gated at ULE mode).
func (s *System) hpReadBits() (dataBits, tagBits int) {
	check := s.cfg.hpWayCode().CheckBits()
	return s.cfg.DataWordBits + check, s.cfg.TagWordBits + check
}

// ExtraHitLatency returns the additional DL1 hit cycles in the given
// mode. Following the paper's accounting (a ~3 % slowdown reported for
// the proposed design in both scenarios at ULE mode), the extra EDC
// pipeline stage is charged when the proposed design's added/upgraded
// code is active, i.e. at ULE mode; the I-side stage is hidden by the
// fetch pipeline.
func (s *System) ExtraHitLatency(m Mode) int {
	if s.cfg.Design == Proposed && m == ModeULE {
		return 1
	}
	return 0
}

// lookupEnergy returns the dynamic energy of one parallel-lookup access
// (all enabled ways probe tag+data) in the given mode.
func (s *System) lookupEnergy(m Mode) float64 {
	vcc := s.cfg.Vcc(m)
	if m == ModeULE {
		d, t := s.uleReadBits(m)
		return float64(s.cfg.ULEWays) * s.uleArray.AccessEnergy(vcc, d, t)
	}
	hd, ht := s.hpReadBits()
	e := float64(s.cfg.Ways-s.cfg.ULEWays) * s.hpArray.AccessEnergy(vcc, hd, ht)
	if !s.cfg.GateULEWaysAtHP {
		ud, ut := s.uleReadBits(m)
		e += float64(s.cfg.ULEWays) * s.uleArray.AccessEnergy(vcc, ud, ut)
	}
	return e
}

// wayWordWriteEnergy returns the energy of writing one data word (plus
// optionally the tag) into a specific way class.
func (s *System) wayWordWriteEnergy(m Mode, uleWay bool, withTag bool) float64 {
	vcc := s.cfg.Vcc(m)
	arr := s.hpArray
	d, t := s.hpReadBits()
	if uleWay {
		arr = s.uleArray
		d, t = s.uleReadBits(m)
	}
	if !withTag {
		t = 0
	}
	return arr.WriteEnergy(vcc, d, t)
}

// cacheLeakPower returns the leakage (pJ/ns) of one cache instance in
// the given mode: powered ULE ways, gated-or-powered HP ways, plus codec
// leakage (inactive codecs are power-gated like the HP ways).
func (s *System) cacheLeakPower(m Mode) float64 {
	vcc := s.cfg.Vcc(m)
	hpGated := m == ModeULE
	uleGated := m == ModeHP && s.cfg.GateULEWaysAtHP
	p := float64(s.cfg.Ways-s.cfg.ULEWays)*s.hpArray.LeakPower(vcc, hpGated) +
		float64(s.cfg.ULEWays)*s.uleArray.LeakPower(vcc, uleGated)
	dataCodec, tagCodec := s.activeCodecs(m)
	for _, c := range []energy.CodecModel{s.secded, s.tagSEC, s.dected, s.tagDEC} {
		if c.Kind == ecc.KindNone {
			continue
		}
		gated := c != dataCodec && c != tagCodec
		p += c.LeakPower(vcc, gated)
	}
	return p
}

// wayCounts are one L1 way's line and word traffic.
type wayCounts struct {
	fills, wbs uint64 // lines filled, dirty victims written back
	wordWrites uint64 // store hits, plus the store into a write-allocated line
}

// add accumulates d into c.
func (c *wayCounts) add(d wayCounts) {
	c.fills += d.fills
	c.wbs += d.wbs
	c.wordWrites += d.wordWrites
}

// portCounters are the per-cache event counts the energy accounting
// consumes: lookups, and every way's line and word traffic, one entry
// per L1 way (nil until the first fold). They hold no HP/ULE split;
// pricing decides which ways are which.
type portCounters struct {
	reads, writes uint64
	ways          []wayCounts
}

// add accumulates every entry of ds into c, growing c's way counts to
// cover theirs.
func (c *portCounters) add(ds ...portCounters) {
	for i := range ds {
		d := &ds[i]
		c.reads += d.reads
		c.writes += d.writes
		if len(c.ways) < len(d.ways) {
			c.ways = append(c.ways, make([]wayCounts, len(d.ways)-len(c.ways))...)
		}
		for w := range d.ways {
			c.ways[w].add(d.ways[w])
		}
	}
}

// fold counts one chunk's L1 outcomes, each in the way it hit or
// filled, and sets miss[i] for the core's timing; c's way counts must
// cover the L1's ways. An op that stands for a run of 1+Rep accesses to
// one line (cache.Op) counts 1+Rep lookups and, for a store run, as
// many word writes; its fill and write-back count once, since only the
// run's first access can miss.
func (c *portCounters) fold(ops []cache.Op, res []cache.Result, miss []bool) {
	ops, miss = ops[:len(res)], miss[:len(res)]
	for i := range res {
		r := &res[i]
		w := &c.ways[r.Way]
		n := 1 + uint64(ops[i].Rep)
		if ops[i].Write {
			c.writes += n
			w.wordWrites += n
		} else {
			c.reads += n
		}
		miss[i] = !r.Hit
		if !r.Hit {
			w.fills++
			if r.Writeback {
				w.wbs++
			}
		}
	}
}

// split sums the way counts of ways [0, hpWays), the HP ways, and of
// the rest, the ULE ways.
func (c *portCounters) split(hpWays int) (hp, ule wayCounts) {
	for w := range c.ways {
		if w < hpWays {
			hp.add(c.ways[w])
		} else {
			ule.add(c.ways[w])
		}
	}
	return hp, ule
}

// l2Counters are one port's second-level event counts. Word writes into
// the L2 need no separate tally: every L2 write (an L1 victim line
// coming down) lands its words exactly once, so writes is also the
// word-write count the energy model charges.
type l2Counters struct {
	reads  uint64 // demand fill reads from the L1
	writes uint64 // dirty-victim write-backs from the L1
	fills  uint64 // lines allocated (read or write misses)
	wbs    uint64 // dirty L2 lines written back to memory
}

// add accumulates every entry of ds into c.
func (c *l2Counters) add(ds ...l2Counters) {
	for _, d := range ds {
		c.reads += d.reads
		c.writes += d.writes
		c.fills += d.fills
		c.wbs += d.wbs
	}
}

// fold counts one L2 batch.
func (c *l2Counters) fold(ops []cache.Op, rs []cache.Result) {
	for i := range rs {
		if ops[i].Write {
			c.writes++
		} else {
			c.reads++
		}
		if !rs[i].Hit {
			c.fills++
			if rs[i].Writeback {
				c.wbs++
			}
		}
	}
}

// tally is one cache's counts per phase id, one dense entry per id the
// stream carried, in first-seen order: each batch is counted in place
// in its phase's entry, and the run's counts are the sum of the entries
// (the counters' add). An unannotated stream counts everything as
// phase 0, so a tally holds as many entries as the stream has distinct
// phase ids, whatever their values.
type tally[C any] struct {
	ids []uint8 // ids[i] is the phase id entry i counts
	cs  []C
}

// phase returns phase id's counts, adding a zero entry for a new id.
func (t *tally[C]) phase(id uint8) *C {
	if i := slices.Index(t.ids, id); i >= 0 {
		return &t.cs[i]
	}
	t.ids = append(t.ids, id)
	t.cs = append(t.cs, *new(C))
	return &t.cs[len(t.cs)-1]
}

// at returns phase id's counts, zero for an id the table never saw.
func (t *tally[C]) at(id uint8) C {
	var c C
	if i := slices.Index(t.ids, id); i >= 0 {
		c = t.cs[i]
	}
	return c
}

// port is one logical cache of a replay group: the timing view the cpu
// layer reads (cpu.Port, and cpu.TieredPort behind a second level).
// Its accesses arrive, and its events are counted, through the group's
// multiPort, which owns the simulators and the tallies.
type port struct {
	extra int

	// hier is the slot hierarchy whose L1 is this port's simulator, and
	// tier the (possibly shared) L2 behind it that this port's member
	// reads: -1, with a zero l2lat, for a single-level member.
	hier  *cache.Hierarchy
	tier  int
	l2lat int
}

// ExtraHitLatency implements cpu.Port.
func (p *port) ExtraHitLatency() int { return p.extra }

// L2Latency implements cpu.TieredPort; zero on single-level ports,
// which deactivates the extension.
func (p *port) L2Latency() int { return p.l2lat }

// L2FillMisses implements cpu.TieredPort.
func (p *port) L2FillMisses() uint64 {
	if p.tier < 0 {
		return 0
	}
	return p.hier.FillMisses(p.tier)
}

// hpWays is the L1's HP way count: ways [0, hpWays) are HP ways.
func (s *System) hpWays() int { return s.cfg.Ways - s.cfg.ULEWays }

// lowWays returns the way mask of ways [0, n).
func lowWays(n int) uint64 { return ^uint64(0) >> (64 - n) }

// stateKey returns the L1 state a member in mode m starts from: ULE
// mode disables the HP ways, and HP mode optionally gates the ULE ways
// (ablation A5).
func (s *System) stateKey(m Mode) slotKey {
	k := slotKey{l1: cache.Config{Sets: s.cfg.Sets, Ways: s.cfg.Ways, LineBytes: s.cfg.LineBytes}}
	switch {
	case m == ModeULE:
		k.l1Ways = lowWays(s.cfg.Ways) &^ lowWays(s.hpWays())
	case s.cfg.GateULEWaysAtHP:
		k.l1Ways = lowWays(s.hpWays())
	default:
		k.l1Ways = lowWays(s.cfg.Ways)
	}
	return k
}

// newSim builds one fresh cache simulator of geometry cfg with only the
// ways in the enabled mask powered.
func newSim(cfg cache.Config, enabled uint64) *cache.Cache {
	c := cache.MustNew(cfg)
	for w := 0; w < cfg.Ways; w++ {
		if enabled&(1<<w) == 0 {
			c.SetWayEnabled(w, false)
		}
	}
	return c
}

// Breakdown is the per-instruction energy decomposition of Figures 3/4.
type Breakdown struct {
	CacheDynamic float64 // L1 array switching energy (pJ/instr)
	CacheLeakage float64 // L1 leakage (pJ/instr)
	EDC          float64 // encoder/decoder switching energy (pJ/instr)
	Core         float64 // everything else (pipeline, RF, TLBs, clock)
}

// Total returns the full EPI (pJ/instr).
func (b Breakdown) Total() float64 {
	return b.CacheDynamic + b.CacheLeakage + b.EDC + b.Core
}

// Report is the outcome of running one workload in one mode.
type Report struct {
	Config   Config
	Mode     Mode
	Workload string

	Stats  cpu.Stats
	TimeNS float64
	EPI    Breakdown

	// Levels, non-nil only when the system ran with a second level
	// (Config.L2), splits the cache portion of the run per level: the
	// EPI terms of Breakdown restricted to one level's arrays and
	// codecs, plus that level's traffic and the stall time its misses
	// cost. Levels sum back to the cache terms of EPI exactly, and the
	// per-level stall times sum to Stats.MissCycles' wall time.
	Levels []LevelEPI

	// Phases, non-nil only when the replayed stream carried phase
	// annotations, segments the run per working-set regime: the same
	// counters, time and EPI decomposition, restricted to one phase id.
	// Integer counters sum exactly to Stats; energy and time sum to the
	// run totals up to float rounding, because every breakdown term is
	// linear in the counters it is computed from.
	Phases []PhaseReport
}

// PhaseReport is one phase's slice of a Report.
type PhaseReport struct {
	Phase  uint8
	Stats  cpu.Stats // the segment's counters (Phases nil)
	TimeNS float64
	EPI    Breakdown

	// Levels is the phase's per-level split, mirroring Report.Levels;
	// non-nil only on hierarchy runs.
	Levels []LevelEPI
}

// LevelEPI is one cache level's slice of a (sub-)run: its energy terms
// per instruction, its traffic, and the core stall time attributable to
// its misses — L1 misses cost the L2 service latency, L2 fill misses
// the full memory latency, so the per-level StallNS sum to the run's
// total miss stall time.
type LevelEPI struct {
	Level    string  // "L1" (both private L1s together) or "L2"
	Dynamic  float64 // array switching energy (pJ/instr)
	Leakage  float64 // pJ/instr
	EDC      float64 // codec energy (pJ/instr)
	Accesses uint64
	Misses   uint64
	StallNS  float64
}

// EPI returns the level's total energy per instruction (pJ).
func (l LevelEPI) EPI() float64 { return l.Dynamic + l.Leakage + l.EDC }

// Run executes the workload on the system in the given mode and returns
// timing plus the EPI breakdown: the one-member form of RunGroup.
func (s *System) Run(w bench.Workload, m Mode) (Report, error) {
	reps, err := RunGroup(w.Name, w.Stream(), []GroupMember{{s, m}})
	if err != nil {
		return Report{}, err
	}
	return reps[0], nil
}

// assemble turns one run's Stats and member k's counts on the two L1
// sides into a Report: the shared accounting tail of RunGroup and
// RunShared, whose callers have rejected empty streams. The run is
// priced from each tally's summed entries and every phase from its own
// entry, with the same accounting: its terms are linear in the
// counters, so phases sum to the totals (exactly for counters, to
// float rounding for energy).
func (s *System) assemble(name string, m Mode, stats cpu.Stats, il1, dl1 *multiPort, k int) Report {
	rep := Report{Config: s.cfg, Mode: m, Workload: name, Stats: stats}
	i1, i2 := il1.tallies(k)
	d1, d2 := dl1.tallies(k)
	var ir, dr portCounters
	var l2 l2Counters
	ir.add(i1.cs...)
	dr.add(d1.cs...)
	l2.add(i2.cs...)
	l2.add(d2.cs...)
	rep.TimeNS, rep.EPI, rep.Levels = s.price(m, stats, ir, dr, l2)
	for _, seg := range stats.Phases {
		id := seg.Phase
		pr := PhaseReport{Phase: id, Stats: seg.Stats}
		var l2 l2Counters
		l2.add(i2.at(id), d2.at(id))
		pr.TimeNS, pr.EPI, pr.Levels = s.price(m, seg.Stats, i1.at(id), d1.at(id), l2)
		rep.Phases = append(rep.Phases, pr)
	}
	return rep
}

// price returns one (sub-)run's wall time, EPI breakdown and, behind a
// second level, per-level split, from its Stats, the two L1s' counts
// and their L2 traffic.
func (s *System) price(m Mode, st cpu.Stats, il1, dl1 portCounters, l2 l2Counters) (float64, Breakdown, []LevelEPI) {
	timeNS := float64(st.Cycles) / s.cfg.FreqGHz(m)
	b := s.breakdown(m, il1, dl1, st.Instructions, timeNS)
	if s.cfg.L2 == nil {
		return timeNS, b, nil
	}
	return timeNS, b, s.levelize(m, &b, st, l2, timeNS)
}

// levelize splits one (sub-)run's cache accounting per level. On entry
// b carries the L1-only breakdown; the L2's own dynamic, leakage and
// codec terms are computed from its counters, folded into b's totals,
// and the per-level rows returned. Keeping the fold here (rather than
// inside breakdown) leaves every single-level code path — and its
// results — untouched.
func (s *System) levelize(m Mode, b *Breakdown, st cpu.Stats, l2c l2Counters, timeNS float64) []LevelEPI {
	instr := float64(st.Instructions)
	freq := s.cfg.FreqGHz(m)
	l1 := LevelEPI{
		Level: "L1", Dynamic: b.CacheDynamic, Leakage: b.CacheLeakage, EDC: b.EDC,
		Accesses: st.IAccesses + st.DAccesses,
		Misses:   st.IMisses + st.DMisses,
		StallNS:  float64((st.IMisses+st.DMisses)*uint64(s.cfg.L2.Latency)) / freq,
	}
	dyn, leak, edc := s.l2Breakdown(m, l2c, timeNS)
	l2 := LevelEPI{
		Level: "L2", Dynamic: dyn / instr, Leakage: leak / instr, EDC: edc / instr,
		Accesses: l2c.reads + l2c.writes,
		Misses:   l2c.fills,
		StallNS:  float64((st.IL2Misses+st.DL2Misses)*uint64(s.cfg.MemLatency)) / freq,
	}
	b.CacheDynamic += l2.Dynamic
	b.CacheLeakage += l2.Leakage
	b.EDC += l2.EDC
	return []LevelEPI{l1, l2}
}

// l2Breakdown returns the second level's raw (not per-instruction)
// dynamic, leakage and codec energies for one (sub-)run, mirroring the
// L1 accounting term by term: parallel lookups over all ways,
// line-granular fills and write-backs, per-word codec passes, and
// leakage of every way. Every term is linear in the counters, so phase
// slices sum to run totals.
func (s *System) l2Breakdown(m Mode, c l2Counters, timeNS float64) (dyn, leak, edc float64) {
	vcc := s.cfg.Vcc(m)
	l2cfg := s.cfg.L2
	check := l2cfg.Protection.CheckBits()
	d := s.cfg.DataWordBits + check
	t := s.cfg.TagWordBits + check
	wpl := l2cfg.LineBytes * 8 / s.cfg.DataWordBits

	// Lookups probe every way; a write lands its victim line
	// word by word (writes == word-write count, see l2Counters); fills
	// write the whole line plus tag; write-backs read the line out.
	dyn = float64(c.reads+c.writes) * float64(l2cfg.Ways) * s.l2Array.AccessEnergy(vcc, d, t)
	dyn += float64(c.writes) * float64(wpl) * s.l2Array.WriteEnergy(vcc, d, 0)
	dyn += float64(c.fills) * (s.l2Array.WriteEnergy(vcc, d, t) + float64(wpl-1)*s.l2Array.WriteEnergy(vcc, d, 0))
	dyn += float64(c.wbs) * float64(wpl) * s.l2Array.AccessEnergy(vcc, d, 0)

	leak = float64(l2cfg.Ways) * s.l2Array.LeakPower(vcc, false) * timeNS

	// Codec traffic: reads decode the selected word, incoming lines
	// (writes and fills) encode every word plus the tag, write-backs to
	// memory decode every word. Zero-valued models cost nothing.
	edc = float64(c.reads) * s.l2Data.DecodeEnergy(vcc)
	edc += float64(c.writes+c.fills) * (float64(wpl)*s.l2Data.EncodeEnergy(vcc) + s.l2Tag.EncodeEnergy(vcc))
	edc += float64(c.wbs) * float64(wpl) * s.l2Data.DecodeEnergy(vcc)
	if l2cfg.Protection != ecc.KindNone {
		leak += (s.l2Data.LeakPower(vcc, false) + s.l2Tag.LeakPower(vcc, false)) * timeNS
	}
	return dyn, leak, edc
}

// breakdown decomposes the energy of one (sub-)run — full run or one
// phase segment — given the two cache ports' event counters, the
// instruction count and the wall time. It is where ways [0, hpWays)
// are priced as HP ways and the rest as ULE ways. Every term is linear
// in its counters; assemble relies on that to make per-phase
// breakdowns sum to the run-level one.
func (s *System) breakdown(m Mode, il1c, dl1c portCounters, instructions uint64, timeNS float64) Breakdown {
	var b Breakdown
	vcc := s.cfg.Vcc(m)
	dataCodec, tagCodec := s.activeCodecs(m)
	wpl := s.cfg.WordsPerLine()
	for _, p := range []portCounters{il1c, dl1c} {
		hp, ule := p.split(s.hpWays())
		// Parallel lookups: every access probes all enabled ways.
		b.CacheDynamic += float64(p.reads+p.writes) * s.lookupEnergy(m)
		// Stores write one word into the way they hit or filled.
		b.CacheDynamic += float64(hp.wordWrites) * s.wayWordWriteEnergy(m, false, false)
		b.CacheDynamic += float64(ule.wordWrites) * s.wayWordWriteEnergy(m, true, false)
		// Line fills write the whole line plus tag into the fill way.
		fillHP := s.wayWordWriteEnergy(m, false, true) + float64(wpl-1)*s.wayWordWriteEnergy(m, false, false)
		fillULE := s.wayWordWriteEnergy(m, true, true) + float64(wpl-1)*s.wayWordWriteEnergy(m, true, false)
		b.CacheDynamic += float64(hp.fills)*fillHP + float64(ule.fills)*fillULE
		// Writebacks read the victim line out.
		vd, _ := s.hpReadBits()
		ud, _ := s.uleReadBits(m)
		b.CacheDynamic += float64(hp.wbs) * float64(wpl) * s.hpArray.AccessEnergy(vcc, vd, 0)
		b.CacheDynamic += float64(ule.wbs) * float64(wpl) * s.uleArray.AccessEnergy(vcc, ud, 0)

		// EDC: one decode per read (the selected word), one encode per
		// written word, line fills encode every word plus the tag,
		// writebacks decode every word.
		b.EDC += float64(p.reads) * dataCodec.DecodeEnergy(vcc)
		b.EDC += float64(hp.wordWrites+ule.wordWrites) * dataCodec.EncodeEnergy(vcc)
		fills := float64(hp.fills + ule.fills)
		b.EDC += fills * (float64(wpl)*dataCodec.EncodeEnergy(vcc) + tagCodec.EncodeEnergy(vcc))
		b.EDC += float64(hp.wbs+ule.wbs) * float64(wpl) * dataCodec.DecodeEnergy(vcc)
	}
	// Two cache instances (IL1, DL1) leak for the whole (sub-)run.
	b.CacheLeakage = 2 * s.cacheLeakPower(m) * timeNS
	b.Core = CoreDynEPI*bitcell.DynScale(vcc)*float64(instructions) +
		CoreLeakPower*bitcell.LeakScale(vcc)*timeNS

	instr := float64(instructions)
	b.CacheDynamic /= instr
	b.CacheLeakage /= instr
	b.EDC /= instr
	b.Core /= instr
	return b
}

// AreaReport decomposes the layout area of one cache instance, in
// minimum-6T-bitcell equivalents.
type AreaReport struct {
	HPWays  float64
	ULEWays float64
	Codecs  float64
}

// Total returns the summed area.
func (a AreaReport) Total() float64 { return a.HPWays + a.ULEWays + a.Codecs }

// Area returns the area decomposition of one cache instance.
func (s *System) Area() AreaReport {
	var codecs float64
	for _, c := range []energy.CodecModel{s.secded, s.tagSEC, s.dected, s.tagDEC} {
		codecs += c.Area()
	}
	return AreaReport{
		HPWays:  float64(s.cfg.Ways-s.cfg.ULEWays) * s.hpArray.Area(),
		ULEWays: float64(s.cfg.ULEWays) * s.uleArray.Area(),
		Codecs:  codecs,
	}
}
