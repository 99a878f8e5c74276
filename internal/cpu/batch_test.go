package cpu

import (
	"io"
	"reflect"
	"testing"

	"edcache/internal/bench"
	"edcache/internal/cache"
	"edcache/internal/trace"
)

// batchPort adapts a cache.Cache to BatchPort through the cache's own
// batch entry point.
type batchPort struct {
	c     *cache.Cache
	extra int
	res   []cache.Result
}

func newBatchPort(extra int) *batchPort {
	return &batchPort{
		c:     cache.MustNew(cache.Config{Sets: 32, Ways: 8, LineBytes: 32}),
		extra: extra,
	}
}

func (p *batchPort) Access(addr uint32, write bool) bool {
	return !p.c.Access(addr, write).Hit
}

func (p *batchPort) ExtraHitLatency() int { return p.extra }

func (p *batchPort) AccessBatch(ops []PortOp, miss []bool) {
	if cap(p.res) < len(ops) {
		p.res = make([]cache.Result, len(ops))
	}
	res := p.res[:len(ops)]
	p.c.AccessBatch(ops, res)
	for i := range res {
		miss[i] = !res[i].Hit
	}
}

// TestBatchedRunMatchesScalar is the replay loop's contract: for every
// generator family, chunked replay must produce Stats bit-identical to
// the per-instruction naive oracle.
func TestBatchedRunMatchesScalar(t *testing.T) {
	for _, name := range []string{"gsm_c", "adpcm_c", "ptrchase_l", "stencil_dsp", "branchy_ctrl", "phased_mix", "adversarial_l1"} {
		t.Run(name, func(t *testing.T) {
			w, err := bench.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			w = w.ScaledTo(50_000)
			for _, extra := range []int{0, 1} {
				scalar := naiveRun(Config{MemLatency: 20}, newPort(0), newPort(extra), w.Stream())
				batched, err := Run(Config{MemLatency: 20}, newBatchPort(0), newBatchPort(extra), w.Stream())
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(scalar, batched) {
					t.Errorf("extra=%d: batched stats %+v != scalar %+v", extra, batched, scalar)
				}
			}
		})
	}
}

// TestBatchedRunReplaysSerialisedTrace covers the Reader-as-Stream
// combination the tools use: generate → serialise v2 → replay batched.
func TestBatchedRunReplaysSerialisedTrace(t *testing.T) {
	w, err := bench.ByName("gsm_c")
	if err != nil {
		t.Fatal(err)
	}
	w = w.ScaledTo(20_000)
	direct, err := Run(Config{MemLatency: 20}, newBatchPort(0), newBatchPort(0), w.Stream())
	if err != nil {
		t.Fatal(err)
	}
	pr := serializeV2(t, w)
	replayed, err := Run(Config{MemLatency: 20}, newBatchPort(0), newBatchPort(0), pr)
	if err != nil {
		t.Fatal(err)
	}
	if pr.Err() != nil {
		t.Fatal(pr.Err())
	}
	if !reflect.DeepEqual(direct, replayed) {
		t.Errorf("replayed stats %+v != direct %+v", replayed, direct)
	}
}

func serializeV2(t *testing.T, w bench.Workload) *trace.Reader {
	t.Helper()
	pr, pw := io.Pipe()
	go func() {
		_, err := trace.WriteV2(pw, w.Stream(), trace.V2Options{Compress: true})
		pw.CloseWithError(err)
	}()
	r, err := trace.NewReader(pr)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// BenchmarkReplay measures replay throughput of one pre-materialised
// trace (the tracegen → replay workflow, generation cost excluded):
// "batch" replays zero-copy windows of a SliceStream over batch ports.
func BenchmarkReplay(b *testing.B) {
	w, err := bench.ByName("gsm_c")
	if err != nil {
		b.Fatal(err)
	}
	const insts = 200_000
	w = w.ScaledTo(insts)
	recorded := append([]trace.Inst(nil), w.Stream().NextSlice(insts)...)
	b.Run("batch", func(b *testing.B) {
		b.SetBytes(insts)
		for i := 0; i < b.N; i++ {
			if _, err := Run(Config{MemLatency: 20}, newBatchPort(0), newBatchPort(0), &trace.SliceStream{Insts: recorded}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
