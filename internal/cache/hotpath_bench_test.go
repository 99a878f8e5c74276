package cache

import (
	"math/rand"
	"testing"
)

// benchOps builds a deterministic access mix over the paper geometry:
// three quarters of the references revisit a 64-line hot set (hits once
// warm), the rest are uniform random (conflict and capacity misses), a
// quarter of everything writes. The mix keeps both the probe loop and
// the victim-selection path of the simulator honest.
func benchOps(n int) []Op {
	rng := rand.New(rand.NewSource(42))
	hot := make([]uint32, 64)
	for i := range hot {
		hot[i] = rng.Uint32()
	}
	ops := make([]Op, n)
	for i := range ops {
		addr := hot[rng.Intn(len(hot))]
		if rng.Intn(4) == 0 {
			addr = rng.Uint32()
		}
		ops[i] = Op{Addr: addr, Write: rng.Intn(4) == 0}
	}
	return ops
}

// benchCache builds the paper-geometry cache with the given number of
// enabled ways (gating the rest, as ULE mode does).
func benchCache(b *testing.B, enabledWays int) *Cache {
	b.Helper()
	c := MustNew(Config{Sets: 32, Ways: 8, LineBytes: 32})
	for w := 0; w < 8-enabledWays; w++ {
		c.SetWayEnabled(w, false)
	}
	return c
}

// BenchmarkCacheAccess pins the one-op path: one Access call (a one-op
// AccessBatch) per op, at full associativity and in the single-way ULE
// configuration.
func BenchmarkCacheAccess(b *testing.B) {
	ops := benchOps(1 << 16)
	for _, ways := range []int{8, 1} {
		name := map[int]string{8: "ways8", 1: "ways1"}[ways]
		b.Run(name, func(b *testing.B) {
			c := benchCache(b, ways)
			b.ReportAllocs()
			b.ResetTimer()
			hits := 0
			for i := 0; i < b.N; i++ {
				op := ops[i&(len(ops)-1)]
				if c.Access(op.Addr, op.Write).Hit {
					hits++
				}
			}
			_ = hits
		})
	}
}

// BenchmarkCacheAccessBatch pins the batched entry point the replay
// loops use: one AccessBatch call per 4096-op chunk, same mix as
// BenchmarkCacheAccess.
func BenchmarkCacheAccessBatch(b *testing.B) {
	const chunk = 4096
	ops := benchOps(1 << 16)
	res := make([]Result, chunk)
	for _, ways := range []int{8, 1} {
		name := map[int]string{8: "ways8", 1: "ways1"}[ways]
		b.Run(name, func(b *testing.B) {
			c := benchCache(b, ways)
			b.ReportAllocs()
			b.ResetTimer()
			for done := 0; done < b.N; done += chunk {
				n := b.N - done
				if n > chunk {
					n = chunk
				}
				start := done % (len(ops) - chunk)
				c.AccessBatch(ops[start:start+n], res[:n])
			}
		})
	}
}
