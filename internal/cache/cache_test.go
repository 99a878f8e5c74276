package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func paperCfg() Config { return Config{Sets: 32, Ways: 8, LineBytes: 32} }

func TestConfigValidation(t *testing.T) {
	if err := paperCfg().Validate(); err != nil {
		t.Errorf("paper config rejected: %v", err)
	}
	bad := []Config{
		{Sets: 0, Ways: 8, LineBytes: 32},
		{Sets: 33, Ways: 8, LineBytes: 32},
		{Sets: 32, Ways: 0, LineBytes: 32},
		{Sets: 32, Ways: 65, LineBytes: 32}, // beyond the packed-mask width
		{Sets: 32, Ways: 8, LineBytes: 24},
	}
	if err := (Config{Sets: 1, Ways: 64, LineBytes: 32}).Validate(); err != nil {
		t.Errorf("64-way config rejected: %v", err)
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
	if got := paperCfg().SizeBytes(); got != 8192 {
		t.Errorf("paper cache size = %d, want 8192", got)
	}
}

func TestBasicHitMiss(t *testing.T) {
	c := MustNew(paperCfg())
	if res := c.Access(0x1000, false); res.Hit {
		t.Error("cold access hit")
	}
	if res := c.Access(0x1000, false); !res.Hit {
		t.Error("second access missed")
	}
	// Same line, different word: hit.
	if res := c.Access(0x101C, false); !res.Hit {
		t.Error("same-line access missed")
	}
	// Different line: miss.
	if res := c.Access(0x1020, false); res.Hit {
		t.Error("next-line access hit")
	}
}

func TestLRUReplacement(t *testing.T) {
	c := MustNew(Config{Sets: 1, Ways: 2, LineBytes: 32})
	c.Access(0x000, false) // A
	c.Access(0x100, false) // B
	c.Access(0x000, false) // touch A — B becomes LRU
	res := c.Access(0x200, false)
	if res.Hit || res.Way != 1 {
		t.Fatalf("expected a miss refilling B's way 1, got %+v", res)
	}
	if !c.Contains(0x000) {
		t.Error("MRU line A was evicted instead of LRU line B")
	}
	if c.Contains(0x100) {
		t.Error("LRU line B survived")
	}
}

func TestWritebackTracking(t *testing.T) {
	c := MustNew(Config{Sets: 1, Ways: 1, LineBytes: 32})
	c.Access(0x000, true) // dirty A
	res := c.Access(0x100, false)
	if !res.Writeback {
		t.Error("evicting a dirty line must report a writeback")
	}
	res = c.Access(0x200, false)
	if res.Writeback {
		t.Error("evicting a clean line must not report a writeback")
	}
}

func TestWayGating(t *testing.T) {
	c := MustNew(paperCfg())
	// Fill one set across all ways.
	for w := 0; w < 8; w++ {
		c.Access(uint32(w)<<10, false)
	}
	// Gate ways 0..6 off (ULE mode: only way 7 stays).
	for w := 0; w < 7; w++ {
		c.SetWayEnabled(w, false)
	}
	if c.EnabledWays() != 1 {
		t.Fatalf("enabled ways = %d", c.EnabledWays())
	}
	// Gated ways lost their contents.
	if c.Contains(0 << 10) {
		t.Error("gated way retained state")
	}
	// All fills now land in way 7.
	for i := 0; i < 20; i++ {
		res := c.Access(uint32(0x9000+i*0x400), false)
		if res.Hit {
			continue
		}
		if res.Way != 7 {
			t.Fatalf("fill landed in gated way %d", res.Way)
		}
	}
	// Re-enable: capacity returns.
	for w := 0; w < 7; w++ {
		c.SetWayEnabled(w, true)
	}
	if c.EnabledWays() != 8 {
		t.Error("re-enable failed")
	}
}

func TestAccessPanicsAllWaysOff(t *testing.T) {
	c := MustNew(Config{Sets: 2, Ways: 1, LineBytes: 32})
	c.SetWayEnabled(0, false)
	defer func() {
		if recover() == nil {
			t.Error("access with zero enabled ways must panic")
		}
	}()
	c.Access(0, false)
}

func TestFlushCountsDirtyLines(t *testing.T) {
	c := MustNew(paperCfg())
	c.Access(0x0000, true)
	c.Access(0x2000, true)
	c.Access(0x4000, false)
	if got := c.Flush(); got != 2 {
		t.Errorf("flush reported %d dirty lines, want 2", got)
	}
	if c.Contains(0x0000) || c.Contains(0x4000) {
		t.Error("flush left valid lines")
	}
	if got := c.Flush(); got != 0 {
		t.Errorf("second flush reported %d dirty lines", got)
	}
}

func TestWorkingSetResidency(t *testing.T) {
	// A working set no larger than the cache must converge to zero
	// misses (with LRU and power-of-two strides this is guaranteed for
	// sequential sweeps).
	c := MustNew(paperCfg())
	misses := 0
	for pass := 0; pass < 4; pass++ {
		for a := uint32(0); a < 8192; a += 32 {
			if res := c.Access(a, false); !res.Hit {
				misses++
			}
		}
	}
	if misses != 256 {
		t.Errorf("misses = %d, want 256 (cold only)", misses)
	}
}

// TestSingleWayModeIsDirectMapped checks the way-gating relation: the
// paper's 8-way cache with only way w powered, gated before any access,
// gives the same Hit/Writeback/Victim row as a fresh direct-mapped cache
// of equal sets and line size, for every w (ULE mode is w = 7).
func TestSingleWayModeIsDirectMapped(t *testing.T) {
	c := MustNew(paperCfg())
	for w := 0; w < 7; w++ {
		c.SetWayEnabled(w, false)
	}
	c.Access(0x0000, false)
	c.Access(0x0400, false) // same set (index bits), different tag
	if c.Contains(0x0000) {
		t.Error("direct-mapped conflict did not evict")
	}

	dm := Config{Sets: paperCfg().Sets, Ways: 1, LineBytes: paperCfg().LineBytes}
	for w := 0; w < paperCfg().Ways; w++ {
		gated, ref := MustNew(paperCfg()), MustNew(dm)
		for v := 0; v < paperCfg().Ways; v++ {
			gated.SetWayEnabled(v, v == w)
		}
		rng := rand.New(rand.NewSource(int64(40 + w)))
		ops := make([]Op, 256)
		got, want := make([]Result, len(ops)), make([]Result, len(ops))
		for chunk := 0; chunk < 40; chunk++ {
			for i := range ops {
				// Four times the cache's reach: hits, clean and dirty
				// conflicts in every set.
				ops[i] = Op{Addr: uint32(rng.Intn(4 * dm.SizeBytes())), Write: rng.Intn(3) == 0, Rep: uint16(rng.Intn(3))}
			}
			gated.AccessBatch(ops, got)
			ref.AccessBatch(ops, want)
			for i := range ops {
				g, r := got[i], want[i]
				if g.Hit != r.Hit || g.Writeback != r.Writeback || g.Victim != r.Victim || g.Way != w {
					t.Fatalf("way %d chunk %d op %d (%+v): gated %+v, direct-mapped %+v", w, chunk, i, ops[i], g, r)
				}
			}
		}
	}
}

func TestQuickPropertyHitAfterFill(t *testing.T) {
	// Property: immediately re-accessing any address hits, regardless
	// of history.
	c := MustNew(paperCfg())
	rng := rand.New(rand.NewSource(9))
	prop := func(addrSeed uint32, write bool) bool {
		// Random history.
		for i := 0; i < 5; i++ {
			c.Access(rng.Uint32(), rng.Intn(2) == 0)
		}
		c.Access(addrSeed, write)
		res := c.Access(addrSeed, false)
		return res.Hit
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
