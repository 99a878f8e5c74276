// Command hybridsim runs one workload on one hybrid-cache configuration
// in one operating mode through the experiment engine and prints
// timing, cache behaviour and the EPI breakdown.
//
// Usage:
//
//	hybridsim [-scenario A|B] [-design baseline|proposed] [-mode HP|ULE]
//	          [-workload adpcm_c | -trace FILE] [-instructions N] [-compare]
//	          [-format text|json|csv]
//
// With -compare the tool runs both designs (in parallel) and prints the
// delta.
package main

import (
	"flag"
	"fmt"
	"io"

	"edcache/internal/bench"
	"edcache/internal/cli"
	"edcache/internal/core"
	"edcache/internal/experiments"
	"edcache/internal/sim"
	"edcache/internal/stats"
	"edcache/internal/yield"
)

func main() {
	cli.Main("hybridsim", run, nil)
}

// run is the testable driver body.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("hybridsim", flag.ContinueOnError)
	var (
		scenarioFlag = fs.String("scenario", "A", "reliability scenario: A or B")
		designFlag   = fs.String("design", "proposed", "cache design: baseline or proposed")
		modeFlag     = fs.String("mode", "ULE", "operating mode: HP or ULE")
		workload     = fs.String("workload", "adpcm_c", "benchmark name (see -list)")
		traceFile    = fs.String("trace", "", "replay a binary trace file (from cmd/tracegen) instead of a generated workload")
		instructions = fs.Int("instructions", 300_000, "dynamic instruction count (0 selects the default)")
		compare      = fs.Bool("compare", false, "run both designs and print the comparison")
		list         = fs.Bool("list", false, "list available workloads and exit")
		format       = fs.String("format", "text", "output format: text, json or csv")
	)
	if err := cli.Parse(fs, args); err != nil {
		return err
	}
	if *instructions < 0 {
		fmt.Fprintf(fs.Output(), "invalid value %d for flag -instructions: must not be negative\n", *instructions)
		fs.Usage()
		return cli.ErrBadFlags
	}
	if *list {
		tb := stats.NewTable("name", "suite", "pattern", "code", "data", "mode duty")
		for _, w := range bench.Full() {
			duty := "HP"
			if w.Suite == bench.SmallBench {
				duty = "ULE"
			}
			tb.AddRow(w.Name, w.Suite.String(), w.Pattern.String(),
				fmt.Sprintf("%dB", w.CodeBytes), fmt.Sprintf("%dB", w.DataBytes), duty)
		}
		fmt.Fprint(stdout, tb.String())
		return nil
	}

	var s yield.Scenario
	switch *scenarioFlag {
	case "A", "a":
		s = yield.ScenarioA
	case "B", "b":
		s = yield.ScenarioB
	default:
		return fmt.Errorf("unknown scenario %q", *scenarioFlag)
	}
	var m core.Mode
	switch *modeFlag {
	case "HP", "hp":
		m = core.ModeHP
	case "ULE", "ule":
		m = core.ModeULE
	default:
		return fmt.Errorf("unknown mode %q", *modeFlag)
	}
	designs := []core.Design{core.Baseline, core.Proposed}
	if !*compare {
		switch *designFlag {
		case "baseline":
			designs = []core.Design{core.Baseline}
		case "proposed":
			designs = []core.Design{core.Proposed}
		default:
			return fmt.Errorf("unknown design %q", *designFlag)
		}
	}

	exp := experiments.NewHybridRun(experiments.HybridSpec{
		Scenario:     s,
		Mode:         m,
		Designs:      designs,
		Workload:     *workload,
		TraceFile:    *traceFile,
		Instructions: *instructions,
	})
	results, err := sim.Runner{}.Run(exp)
	if err != nil {
		return err
	}
	sink, err := sim.NewSink(*format, stdout)
	if err != nil {
		return err
	}
	return sink.Write(results)
}
