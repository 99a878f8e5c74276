package core

import (
	"fmt"

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

// portCounters are the per-cache event counts the energy accounting
// consumes. They live in their own struct so a run can be sliced: the
// port keeps running totals plus, for phase-annotated streams, one
// delta per phase id.
type portCounters struct {
	reads, writes           uint64
	fillsHP, fillsULE       uint64
	wbHP, wbULE             uint64
	writeHitHP, writeHitULE uint64
}

// sub returns the field-wise difference c − m.
func (c portCounters) sub(m portCounters) portCounters {
	return portCounters{
		reads: c.reads - m.reads, writes: c.writes - m.writes,
		fillsHP: c.fillsHP - m.fillsHP, fillsULE: c.fillsULE - m.fillsULE,
		wbHP: c.wbHP - m.wbHP, wbULE: c.wbULE - m.wbULE,
		writeHitHP: c.writeHitHP - m.writeHitHP, writeHitULE: c.writeHitULE - m.writeHitULE,
	}
}

// add accumulates d into c.
func (c *portCounters) add(d portCounters) {
	c.reads += d.reads
	c.writes += d.writes
	c.fillsHP += d.fillsHP
	c.fillsULE += d.fillsULE
	c.wbHP += d.wbHP
	c.wbULE += d.wbULE
	c.writeHitHP += d.writeHitHP
	c.writeHitULE += d.writeHitULE
}

// l2Counters are one port's second-level event counts. Word writes into
// the L2 need no separate tally: every L2 write (an L1 victim line
// coming down, or a flush) lands its words exactly once, so writes is
// also the word-write count the energy model charges.
type l2Counters struct {
	reads  uint64 // demand fill reads from the L1
	writes uint64 // dirty-victim write-backs from the L1
	fills  uint64 // lines allocated (read or write misses)
	wbs    uint64 // dirty L2 lines written back to memory
}

// sub returns the field-wise difference c − m.
func (c l2Counters) sub(m l2Counters) l2Counters {
	return l2Counters{
		reads: c.reads - m.reads, writes: c.writes - m.writes,
		fills: c.fills - m.fills, wbs: c.wbs - m.wbs,
	}
}

// add accumulates d into c.
func (c *l2Counters) add(d l2Counters) {
	c.reads += d.reads
	c.writes += d.writes
	c.fills += d.fills
	c.wbs += d.wbs
}

// portPhase is one phase's slice of a port's counters.
type portPhase struct {
	id uint8
	portCounters
	l2 l2Counters
}

// port is one logical cache of a replay group: the timing view the cpu
// layer reads (cpu.Port, and cpu.TieredPort behind a second level) and
// the event counts the energy accounting consumes. Its accesses arrive
// through the group's multiPort, which owns the simulators.
type port struct {
	extra int

	hpWays int // ways [0, hpWays) are HP ways

	// Two-level state, nil/zero on single-level ports: the hierarchy
	// whose L1 is this port's simulator (the L2 behind it may be shared
	// with other ports), the L2 service latency, and the port's own L2
	// tallies.
	hier   *cache.Hierarchy
	l2lat  int
	l2     l2Counters
	l2mark l2Counters

	portCounters

	// Phase segmentation, driven by cpu's ledger through BeginPhase.
	cur  uint8
	mark portCounters
	segs []portPhase
}

// tally folds one access outcome into the port's event counters and
// reports whether it missed.
func (p *port) tally(res cache.Result, write bool) (miss bool) {
	ule := res.Way >= p.hpWays
	if res.Hit {
		if write {
			if ule {
				p.writeHitULE++
			} else {
				p.writeHitHP++
			}
		}
		return false
	}
	if ule {
		p.fillsULE++
	} else {
		p.fillsHP++
	}
	if res.Writeback {
		if ule {
			p.wbULE++
		} else {
			p.wbHP++
		}
	}
	// A filled line is immediately written (write-allocate): account the
	// store's word write as a write hit into the fill way.
	if write {
		if ule {
			p.writeHitULE++
		} else {
			p.writeHitHP++
		}
	}
	return true
}

// tallyL2Chunk folds the hierarchy's most recent L2 batch into the
// port's second-level counters.
func (p *port) tallyL2Chunk() {
	ops, rs := p.hier.L2Ops(), p.hier.L2Results()
	for i := range rs {
		if ops[i].Write {
			p.l2.writes++
		} else {
			p.l2.reads++
		}
		if !rs[i].Hit {
			p.l2.fills++
			if rs[i].Writeback {
				p.l2.wbs++
			}
		}
	}
}

// tallyChunk folds one chunk's simulator outcomes into the port's
// event counters, setting miss[i] for the core's timing.
func (p *port) tallyChunk(ops []cache.Op, res []cache.Result, miss []bool) {
	if p.hier != nil {
		p.tallyL2Chunk()
	}
	for i := range res {
		write := ops[i].Write
		if write {
			p.writes++
		} else {
			p.reads++
		}
		miss[i] = p.tally(res[i], write)
	}
}

// ExtraHitLatency implements cpu.Port.
func (p *port) ExtraHitLatency() int { return p.extra }

// L2Latency implements cpu.TieredPort; zero on single-level ports,
// which deactivates the extension.
func (p *port) L2Latency() int { return p.l2lat }

// L2FillMisses implements cpu.TieredPort.
func (p *port) L2FillMisses() uint64 {
	if p.hier == nil {
		return 0
	}
	return p.hier.FillMisses()
}

// BeginPhase is forwarded by the group's multiPort at every phase
// boundary of a phase-annotated stream, before the new phase's accesses
// are issued. The segment bookkeeping below mirrors cpu's phase ledger
// (snapshot at the boundary, diff, accumulate by id) — the two must
// keep identical boundary semantics or Report.Phases' energy would be
// attributed to different segments than its counters.
func (p *port) BeginPhase(id uint8) {
	p.closeSegment()
	p.cur = id
}

// closeSegment folds the counters accumulated since the last boundary
// into the current phase's slice.
func (p *port) closeSegment() {
	d := p.portCounters.sub(p.mark)
	d2 := p.l2.sub(p.l2mark)
	p.mark = p.portCounters
	p.l2mark = p.l2
	if d == (portCounters{}) && d2 == (l2Counters{}) {
		return
	}
	for i := range p.segs {
		if p.segs[i].id == p.cur {
			p.segs[i].add(d)
			p.segs[i].l2.add(d2)
			return
		}
	}
	p.segs = append(p.segs, portPhase{id: p.cur, portCounters: d, l2: d2})
}

// phase returns this port's counters for one phase id (zero counters
// when the phase issued no accesses on this port). Call closeSegment
// first so the trailing segment is folded in.
func (p *port) phase(id uint8) portCounters {
	for i := range p.segs {
		if p.segs[i].id == id {
			return p.segs[i].portCounters
		}
	}
	return portCounters{}
}

// phaseL2 returns this port's second-level counters for one phase id.
func (p *port) phaseL2(id uint8) l2Counters {
	for i := range p.segs {
		if p.segs[i].id == id {
			return p.segs[i].l2
		}
	}
	return l2Counters{}
}

// newSim builds one fresh cache simulator with the configuration's
// geometry and the mode's way gating applied: ULE mode disables the HP
// ways, HP mode optionally gates the ULE ways (ablation A5). This is
// the entire mode- and design-dependence of the cache *state* — the
// EDC latency and energy models live outside the simulator — which is
// what lets the group runner share one simulator between configurations
// whose geometry and gating coincide (baseline vs proposed at the same
// mode, in particular).
func (s *System) newSim(m Mode) *cache.Cache {
	sim := cache.MustNew(cache.Config{Sets: s.cfg.Sets, Ways: s.cfg.Ways, LineBytes: s.cfg.LineBytes})
	if m == ModeULE {
		for w := 0; w < s.cfg.Ways-s.cfg.ULEWays; w++ {
			sim.SetWayEnabled(w, false)
		}
	} else if s.cfg.GateULEWaysAtHP {
		for w := s.cfg.Ways - s.cfg.ULEWays; w < s.cfg.Ways; w++ {
			sim.SetWayEnabled(w, false)
		}
	}
	return sim
}

// newL2Sim builds one fresh second-level simulator with the configured
// geometry and enabled-way cap. The L2 keeps its full way set in both
// modes — it sits behind the mode-switched L1s and is not part of the
// hybrid way split.
func (s *System) newL2Sim() *cache.Cache {
	l2 := cache.MustNew(cache.Config{Sets: s.cfg.L2.Sets, Ways: s.cfg.L2.Ways, LineBytes: s.cfg.L2.LineBytes})
	if n := s.cfg.L2.EnabledWays; n > 0 {
		for w := n; w < s.cfg.L2.Ways; w++ {
			l2.SetWayEnabled(w, false)
		}
	}
	return l2
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

// assemble turns one run's Stats and tallied ports into a Report: the
// shared accounting tail of RunGroup and RunShared, whose callers have
// rejected empty streams. The ports are consumed — their trailing phase
// segments are folded in here.
func (s *System) assemble(name string, m Mode, stats cpu.Stats, il1, dl1 *port) Report {
	timeNS := float64(stats.Cycles) / s.cfg.FreqGHz(m)

	rep := Report{
		Config:   s.cfg,
		Mode:     m,
		Workload: name,
		Stats:    stats,
		TimeNS:   timeNS,
		EPI:      s.breakdown(m, il1.portCounters, dl1.portCounters, stats.Instructions, timeNS),
	}
	hier := il1.hier != nil
	if hier {
		l2c := il1.l2
		l2c.add(dl1.l2)
		rep.Levels = s.levelize(m, &rep.EPI, stats, l2c, timeNS)
	}
	if stats.Phases != nil {
		// Fold each port's trailing segment in, then decompose every
		// phase with the same accounting the run-level breakdown uses —
		// the terms are linear in the counters, so phases sum to the
		// totals (exactly for counters, to float rounding for energy).
		il1.closeSegment()
		dl1.closeSegment()
		for _, seg := range stats.Phases {
			pt := float64(seg.Stats.Cycles) / s.cfg.FreqGHz(m)
			pr := PhaseReport{
				Phase:  seg.Phase,
				Stats:  seg.Stats,
				TimeNS: pt,
				EPI:    s.breakdown(m, il1.phase(seg.Phase), dl1.phase(seg.Phase), seg.Stats.Instructions, pt),
			}
			if hier {
				pl2 := il1.phaseL2(seg.Phase)
				pl2.add(dl1.phaseL2(seg.Phase))
				pr.Levels = s.levelize(m, &pr.EPI, seg.Stats, pl2, pt)
			}
			rep.Phases = append(rep.Phases, pr)
		}
	}
	return rep
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
// L1 accounting term by term: parallel lookups over the enabled ways,
// line-granular fills and write-backs, per-word codec passes, and
// leakage with the disabled ways gated. Every term is linear in the
// counters, so phase slices sum to run totals.
func (s *System) l2Breakdown(m Mode, c l2Counters, timeNS float64) (dyn, leak, edc float64) {
	vcc := s.cfg.Vcc(m)
	l2cfg := s.cfg.L2
	enabled := l2cfg.Ways
	if l2cfg.EnabledWays > 0 {
		enabled = l2cfg.EnabledWays
	}
	check := l2cfg.Protection.CheckBits()
	d := s.cfg.DataWordBits + check
	t := s.cfg.TagWordBits + check
	wpl := l2cfg.LineBytes * 8 / s.cfg.DataWordBits

	// Lookups probe every enabled way; a write lands its victim line
	// word by word (writes == word-write count, see l2Counters); fills
	// write the whole line plus tag; write-backs read the line out.
	dyn = float64(c.reads+c.writes) * float64(enabled) * s.l2Array.AccessEnergy(vcc, d, t)
	dyn += float64(c.writes) * float64(wpl) * s.l2Array.WriteEnergy(vcc, d, 0)
	dyn += float64(c.fills) * (s.l2Array.WriteEnergy(vcc, d, t) + float64(wpl-1)*s.l2Array.WriteEnergy(vcc, d, 0))
	dyn += float64(c.wbs) * float64(wpl) * s.l2Array.AccessEnergy(vcc, d, 0)

	leak = (float64(enabled)*s.l2Array.LeakPower(vcc, false) +
		float64(l2cfg.Ways-enabled)*s.l2Array.LeakPower(vcc, true)) * timeNS

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
// instruction count and the wall time. Every term is linear in its
// counters; assemble relies on that to make per-phase breakdowns sum
// to the run-level one.
func (s *System) breakdown(m Mode, il1c, dl1c portCounters, instructions uint64, timeNS float64) Breakdown {
	var b Breakdown
	vcc := s.cfg.Vcc(m)
	dataCodec, tagCodec := s.activeCodecs(m)
	wpl := s.cfg.WordsPerLine()
	for _, p := range []portCounters{il1c, dl1c} {
		// Parallel lookups: every access probes all enabled ways.
		b.CacheDynamic += float64(p.reads+p.writes) * s.lookupEnergy(m)
		// Store hits write one word into the hit way.
		b.CacheDynamic += float64(p.writeHitHP) * s.wayWordWriteEnergy(m, false, false)
		b.CacheDynamic += float64(p.writeHitULE) * s.wayWordWriteEnergy(m, true, false)
		// Line fills write the whole line plus tag into the fill way.
		fillHP := s.wayWordWriteEnergy(m, false, true) + float64(wpl-1)*s.wayWordWriteEnergy(m, false, false)
		fillULE := s.wayWordWriteEnergy(m, true, true) + float64(wpl-1)*s.wayWordWriteEnergy(m, true, false)
		b.CacheDynamic += float64(p.fillsHP)*fillHP + float64(p.fillsULE)*fillULE
		// Writebacks read the victim line out.
		vd, _ := s.hpReadBits()
		ud, _ := s.uleReadBits(m)
		b.CacheDynamic += float64(p.wbHP) * float64(wpl) * s.hpArray.AccessEnergy(vcc, vd, 0)
		b.CacheDynamic += float64(p.wbULE) * float64(wpl) * s.uleArray.AccessEnergy(vcc, ud, 0)

		// EDC: one decode per read (the selected word), one encode per
		// written word, line fills encode every word plus the tag,
		// writebacks decode every word.
		b.EDC += float64(p.reads) * dataCodec.DecodeEnergy(vcc)
		b.EDC += float64(p.writeHitHP+p.writeHitULE) * dataCodec.EncodeEnergy(vcc)
		fills := float64(p.fillsHP + p.fillsULE)
		b.EDC += fills * (float64(wpl)*dataCodec.EncodeEnergy(vcc) + tagCodec.EncodeEnergy(vcc))
		b.EDC += float64(p.wbHP+p.wbULE) * float64(wpl) * dataCodec.DecodeEnergy(vcc)
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
