// Command tracegen materialises a synthetic workload — the paper suite
// or any extension-corpus generator (hybridsim -list shows all) — as a
// binary trace file that cmd/hybridsim (and any Stream consumer) can
// replay byte-identically: the generate-once, replay-everywhere
// workflow of trace-driven evaluations. Traces are written in format v2
// (chunked, streamable, optionally gzip-compressed) by default; -format
// v1 keeps the flat legacy container. See docs/TRACEFORMAT.md for the
// format spec.
//
// Usage:
//
//	tracegen -workload gsm_c -instructions 300000 -o gsm_c.trace
//	tracegen -workload ptrchase_l -gzip -o chase.trace.gz
//	tracegen -workload phased_mix -phases -o phased.trace
//	tracegen -verify gsm_c.trace
//	tracegen -reindex old.trace -o indexed.trace
//
// New uncompressed v2 traces carry per-chunk CRC32C checksums and a
// seekable chunk index (the v2.1 extensions, stream-flag bits 2 and 3)
// by default; -crc=false / -index=false opt out, and -gzip drops both
// (a gzip body checks itself and has no addressable chunks). -reindex
// rewrites an existing container (any version) as an uncompressed,
// checksummed, indexed v2 file — the migration path for archives that
// predate the extensions.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"edcache/internal/bench"
	"edcache/internal/cli"
	"edcache/internal/store"
	"edcache/internal/trace"
)

func main() {
	cli.Main("tracegen", run, nil)
}

// run is the testable driver body.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("tracegen", flag.ContinueOnError)
	var (
		workload     = fs.String("workload", "", "benchmark to generate (see hybridsim -list)")
		instructions = fs.Int("instructions", 300_000, "dynamic instruction count")
		out          = fs.String("o", "", "output trace file (default: <workload>.trace)")
		format       = fs.String("format", "v2", "container format: v1 (flat) or v2 (chunked, streamable)")
		gzipBody     = fs.Bool("gzip", false, "gzip-compress the v2 body")
		chunk        = fs.Int("chunk", 0, "records per v2 chunk (0 = default)")
		phases       = fs.Bool("phases", false, "carry per-record phase ids (v2 stream-flag bit 1)")
		crc          = fs.Bool("crc", true, "append per-chunk CRC32C checksums (v2 stream-flag bit 2; dropped under -gzip)")
		index        = fs.Bool("index", true, "append a seekable chunk index (v2 stream-flag bit 3; dropped under -gzip)")
		verify       = fs.String("verify", "", "validate an existing trace file (v1 or v2) and print its stats")
		reindex      = fs.String("reindex", "", "rewrite an existing trace file as an uncompressed, checksummed, indexed v2 file (to -o, or in place)")
	)
	if err := cli.Parse(fs, args); err != nil {
		return err
	}
	if *verify != "" {
		return verifyTrace(*verify, stdout)
	}
	if *reindex != "" {
		return reindexTrace(*reindex, *out, *chunk, stdout)
	}
	if *workload == "" {
		return fmt.Errorf("need -workload, -verify or -reindex")
	}
	w, err := bench.ByName(*workload)
	if err != nil {
		return err
	}
	// A gzip body carries its own CRC and has no addressable chunks, so
	// the v2.1 extensions cannot combine with it: silently drop them
	// when they are mere defaults, reject the contradiction when the
	// user asked for both explicitly.
	explicit := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	if *gzipBody {
		if explicit["crc"] && *crc {
			return fmt.Errorf("-crc is incompatible with -gzip (the gzip stream carries its own CRC32)")
		}
		if explicit["index"] && *index {
			return fmt.Errorf("-index is incompatible with -gzip (gzip chunks have no addressable file offsets)")
		}
		*crc, *index = false, false
	}
	// Validate the option combination before touching the output path,
	// so a bad invocation cannot truncate an existing trace file.
	switch *format {
	case "v2":
		if *chunk < 0 || *chunk > trace.MaxChunkRecords {
			return fmt.Errorf("-chunk %d outside [0, %d]", *chunk, trace.MaxChunkRecords)
		}
	case "v1":
		if *gzipBody || *chunk != 0 || *phases {
			return fmt.Errorf("-gzip, -chunk and -phases need -format v2")
		}
		if explicit["crc"] && *crc || explicit["index"] && *index {
			return fmt.Errorf("-crc and -index need -format v2")
		}
	default:
		return fmt.Errorf("unknown format %q (want v1 or v2)", *format)
	}
	w = w.ScaledTo(*instructions)
	path := *out
	if path == "" {
		path = w.Name + ".trace"
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	var n int64
	if *format == "v2" {
		n, err = trace.WriteV2(f, w.Stream(), trace.V2Options{
			Compress: *gzipBody, ChunkRecords: *chunk, Phases: *phases,
			Checksums: *crc, Index: *index,
		})
	} else {
		var n1 int
		n1, err = trace.Write(f, w.Stream())
		n = int64(n1)
	}
	if err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	suffix := ""
	if *phases {
		suffix = ", phase-annotated"
		if !w.HasPhases() {
			suffix = ", phase-annotated — note: generator emits a single phase 0"
		}
	}
	fmt.Fprintf(stdout, "wrote %d instructions of %s to %s (format %s%s)\n", n, w.Name, path, *format, suffix)
	return nil
}

func verifyTrace(path string, stdout io.Writer) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	r, err := trace.NewReader(f)
	if err != nil {
		return err
	}
	var n, loads, stores, branches int
	var phaseCounts [256]int
	for {
		w := r.NextSlice(4096)
		if len(w) == 0 {
			break
		}
		for _, inst := range w {
			switch {
			case inst.IsLoad:
				loads++
			case inst.IsStore:
				stores++
			case inst.IsBranch:
				branches++
			}
			phaseCounts[inst.Phase]++
		}
		n += len(w)
	}
	if err := r.Err(); err != nil {
		return err
	}
	compression := "uncompressed"
	if r.Compressed() {
		compression = "gzip"
	}
	fmt.Fprintf(stdout, "%s: format v%d (%s), %d instructions (%.1f%% loads, %.1f%% stores, %.1f%% branches) — valid\n",
		path, r.Version(), compression, n, pct(loads, n), pct(stores, n), pct(branches, n))
	// Integrity coverage: say explicitly what "valid" rested on. A
	// stream can be structurally well-formed while carrying no
	// integrity data at all (v1, pre-CRC v2) — that is a different
	// statement from "every chunk checksum verified", and the report
	// must not conflate the two.
	switch {
	case r.HasChecksums():
		fmt.Fprintf(stdout, "integrity: per-chunk CRC32C — %d/%d chunks verified\n", r.Chunks(), r.Chunks())
	case r.Compressed():
		fmt.Fprintln(stdout, "integrity: gzip stream CRC32 (whole body; no per-chunk checksums)")
	default:
		fmt.Fprintln(stdout, "integrity: none — structural checks only (no per-chunk checksums; tracegen -reindex adds them)")
	}
	if r.HasIndex() {
		fmt.Fprintf(stdout, "index: seekable chunk index — %d entries cross-checked against the streamed chunks\n", r.Chunks())
	} else {
		fmt.Fprintln(stdout, "index: none — sequential access only (tracegen -reindex adds one)")
	}
	// Phase-id presence, per-id counts, and header/record mismatches.
	if r.HasPhases() {
		fmt.Fprintf(stdout, "phases: present —")
		for id, c := range phaseCounts {
			if c > 0 {
				fmt.Fprintf(stdout, " %d×%d", id, c)
			}
		}
		fmt.Fprintln(stdout)
	} else {
		fmt.Fprintln(stdout, "phases: none")
	}
	if stray := r.UnadvertisedPhaseBytes(); stray > 0 {
		fmt.Fprintf(stdout, "warning: %d records carry a non-zero phase byte but the stream does not advertise phases (flag bit 1 clear); they replay as phase 0\n", stray)
	}
	return nil
}

// reindexTrace rewrites an existing container (any version, compressed
// or not) as an uncompressed v2 file with per-chunk CRC32C checksums
// and a seekable chunk index — the migration path for archives written
// before the v2.1 extensions. The source is fully validated while
// streaming; phase annotations are preserved. With no -o the file is
// replaced in place via a temp file + rename, so a validation or write
// failure leaves the original untouched.
func reindexTrace(src, dst string, chunk int, stdout io.Writer) error {
	if chunk < 0 || chunk > trace.MaxChunkRecords {
		return fmt.Errorf("-chunk %d outside [0, %d]", chunk, trace.MaxChunkRecords)
	}
	f, err := os.Open(src)
	if err != nil {
		return err
	}
	defer f.Close()
	r, err := trace.NewReader(f)
	if err != nil {
		return fmt.Errorf("%s: %w", src, err)
	}
	inPlace := dst == "" || dst == src
	outPath := dst
	if inPlace {
		outPath = src + ".reindex.tmp"
	}
	out, err := os.Create(outPath)
	if err != nil {
		return err
	}
	n, werr := trace.WriteV2(out, r, trace.V2Options{
		ChunkRecords: chunk, Phases: r.HasPhases(),
		Checksums: true, Index: true,
	})
	if werr == nil {
		werr = r.Err() // source corruption surfaces here, after the drain
	}
	if werr == nil {
		// Seal the bytes before any rename can expose the new file: a
		// crash after an un-fsynced rename could leave a truncated
		// container under the original's name.
		werr = out.Sync()
	}
	if cerr := out.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(outPath)
		return fmt.Errorf("reindex %s: %w", src, werr)
	}
	if inPlace {
		if err := os.Rename(outPath, src); err != nil {
			os.Remove(outPath)
			return err
		}
		outPath = src
	}
	// Make the directory entry itself durable — the same discipline as
	// the result store (see docs/STORE.md): rename without a parent
	// fsync can be undone by a crash.
	if err := store.SyncDir(filepath.Dir(outPath)); err != nil {
		return fmt.Errorf("reindex %s: sync directory: %w", src, err)
	}
	fmt.Fprintf(stdout, "reindexed %d instructions from %s to %s (v2, per-chunk CRC32C, seekable index)\n", n, src, outPath)
	return nil
}

func pct(a, n int) float64 {
	if n == 0 {
		return 0
	}
	return 100 * float64(a) / float64(n)
}
