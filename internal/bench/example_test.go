package bench_test

import (
	"fmt"

	"edcache/internal/bench"
)

// ExampleByName resolves a workload — paper suite or extension corpus —
// and generates its deterministic stream.
func ExampleByName() {
	w, err := bench.ByName("ptrchase_s")
	if err != nil {
		panic(err)
	}
	w = w.ScaledTo(8) // two loop iterations of the 4-instruction body
	for _, inst := range w.Stream().NextSlice(8) {
		kind := "alu"
		switch {
		case inst.IsLoad:
			kind = fmt.Sprintf("load @%#x (use-dist %d)", inst.Addr, inst.UseDist)
		case inst.IsBranch:
			kind = "branch"
		}
		fmt.Printf("pc=%#x %s\n", inst.PC, kind)
	}
	// Output:
	// pc=0x400000 load @0x10000000 (use-dist 1)
	// pc=0x400004 alu
	// pc=0x400008 alu
	// pc=0x40000c branch
	// pc=0x400000 load @0x10000090 (use-dist 1)
	// pc=0x400004 alu
	// pc=0x400008 alu
	// pc=0x40000c branch
}

// ExampleCorpus lists the extension corpus with each entry's generator
// family — the table the README documents.
func ExampleCorpus() {
	for _, w := range bench.Corpus() {
		fmt.Printf("%-15s %-10s %s\n", w.Name, w.Suite, w.Pattern)
	}
	// Output:
	// ptrchase_s      SmallBench ptrchase
	// ptrchase_l      BigBench   ptrchase
	// stencil_s       SmallBench stencil
	// stencil_dsp     BigBench   stencil
	// branchy_tight   SmallBench branchy
	// branchy_ctrl    BigBench   branchy
	// phased_mix      BigBench   phased
	// adversarial_l1  BigBench   adversarial
}

// ExamplePointerChase builds a custom parameterised instance of a
// corpus generator — the "adding a workload" recipe's first step.
func ExamplePointerChase() {
	w := bench.PointerChase("chase_custom", bench.BigBench, 4096, 5, 42)
	fmt.Printf("%s: %d-byte list, one chase load every %d instructions\n",
		w.Name, w.DataBytes, w.CodeBytes/4)
	// Output:
	// chase_custom: 4096-byte list, one chase load every 5 instructions
}
