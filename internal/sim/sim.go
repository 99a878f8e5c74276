// Package sim is the concurrent experiment engine of the repository. It
// turns the hand-rolled serial loops that used to live in every main()
// into a declarative pipeline: an Experiment exposes a parameter grid
// and a run function, a Registry makes experiments discoverable by
// name, a Runner fans the grid out across a worker pool with
// per-task deterministic RNG seeds and order-stable result collection,
// and Sinks render the typed results as text tables, JSON or CSV.
//
// Determinism is a design requirement, not an accident: for a fixed
// master seed the engine produces byte-identical output for any worker
// count, because every task derives its own RNG from (seed, experiment
// name, task index) and results are collected by grid index, never by
// arrival order.
package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
)

// Task is one cell of an experiment's parameter grid.
type Task struct {
	// ID is the task's position in the grid. The Runner assigns it and
	// collects results by it, which is what makes aggregation
	// order-stable under concurrency.
	ID int `json:"id"`

	// Label names the grid point for humans, e.g. "scenario=A mode=HP".
	Label string `json:"label"`

	// Params are the rendered and hashed form of the grid point: sinks
	// print them, labels echo them and the store digest covers them.
	// Experiments keep their own typed points and do not read Params
	// back.
	Params map[string]string `json:"params,omitempty"`

	// Seed is the task's deterministic RNG seed, derived by the Runner
	// from its master seed, the experiment name and the task ID.
	Seed int64 `json:"-"`

	// Group, when non-empty, names the shared work the task reads (a
	// memoised replay or profile). The Runner hands every task of one
	// group to one worker, back to back, so no sibling waits on a memo
	// another worker is building. It is a scheduling hint only: it is
	// not rendered, stored or hashed, and cannot change a result.
	Group string `json:"-"`
}

// P builds a Params map from alternating key/value strings.
func P(kv ...string) map[string]string {
	if len(kv)%2 != 0 {
		panic("sim: P needs an even number of arguments")
	}
	m := make(map[string]string, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		m[kv[i]] = kv[i+1]
	}
	return m
}

// ParamString renders Params deterministically (sorted by key).
func (t Task) ParamString() string {
	keys := make([]string, 0, len(t.Params))
	for k := range t.Params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = k + "=" + t.Params[k]
	}
	return strings.Join(parts, " ")
}

// Metric is one named value of a result row.
type Metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit,omitempty"`
	// Text, when set, is the preformatted rendering sinks prefer over
	// Value (e.g. "x1.85" or "+42.1%").
	Text string `json:"text,omitempty"`
}

// Num builds a plain numeric metric.
func Num(name string, v float64) Metric { return Metric{Name: name, Value: v} }

// NumU builds a numeric metric with a unit.
func NumU(name string, v float64, unit string) Metric {
	return Metric{Name: name, Value: v, Unit: unit}
}

// Fmt builds a metric whose rendering is preformatted; the numeric
// value is still carried for machine consumers.
func Fmt(name string, v float64, format string) Metric {
	return Metric{Name: name, Value: v, Text: fmt.Sprintf(format, v)}
}

// FmtU is Fmt with a unit.
func FmtU(name string, v float64, unit, format string) Metric {
	return Metric{Name: name, Value: v, Unit: unit, Text: fmt.Sprintf(format, v)}
}

// Str builds a purely textual metric.
func Str(name, text string) Metric { return Metric{Name: name, Text: text} }

// Result is the typed outcome of one task.
type Result struct {
	Experiment string   `json:"experiment"`
	Task       Task     `json:"task"`
	Metrics    []Metric `json:"metrics,omitempty"`

	// Detail is an optional free-form rendering (tables, stacked bars,
	// commentary) that the text sink prints verbatim; structured sinks
	// carry it as an opaque string.
	Detail string `json:"detail,omitempty"`

	// Data is an optional typed payload a Run function can attach for
	// its experiment's Finish hook (e.g. a core.Pair to aggregate with
	// the library's own summarisers). Sinks ignore it.
	Data any `json:"-"`
}

// Metric returns the named metric and whether it exists.
func (r Result) Metric(name string) (Metric, bool) {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return Metric{}, false
}

// Experiment is a declarative unit of evaluation: a named parameter
// grid plus a run function. Implementations must be safe for concurrent
// Run calls on distinct tasks — all mutable state belongs to the task.
type Experiment interface {
	// Name is the registry key, e.g. "fig3" or "a1-waysplit".
	Name() string
	// Description is a one-line summary shown by listings.
	Description() string
	// Grid returns the parameter grid in a deterministic order. ID and
	// Seed fields are assigned by the Runner and may be left zero.
	Grid() []Task
	// Run evaluates one grid point. rng is seeded deterministically per
	// task; implementations must use it (and not the global rand) for
	// all randomness so results are independent of scheduling.
	Run(t Task, rng *rand.Rand) (Result, error)
}

// Finisher is an optional Experiment extension: after every grid task
// has completed, Finish derives summary rows (averages, comparisons)
// from the ordered per-task results. The returned slice replaces the
// result set, so implementations typically append to it.
type Finisher interface {
	Finish(results []Result) ([]Result, error)
}

// Def is a function-backed Experiment, so registering a new scenario is
// a small literal instead of a new binary.
type Def struct {
	ExpName string
	Desc    string
	GridFn  func() []Task
	RunFn   func(t Task, rng *rand.Rand) (Result, error)
	// FinishFn is optional summary aggregation (see Finisher).
	FinishFn func(results []Result) ([]Result, error)
}

// Name implements Experiment.
func (d Def) Name() string { return d.ExpName }

// Description implements Experiment.
func (d Def) Description() string { return d.Desc }

// Grid implements Experiment.
func (d Def) Grid() []Task {
	if d.GridFn == nil {
		return []Task{{Label: d.ExpName}}
	}
	return d.GridFn()
}

// Run implements Experiment.
func (d Def) Run(t Task, rng *rand.Rand) (Result, error) { return d.RunFn(t, rng) }

// Finish implements Finisher; a nil FinishFn passes results through.
func (d Def) Finish(results []Result) ([]Result, error) {
	if d.FinishFn == nil {
		return results, nil
	}
	return d.FinishFn(results)
}
