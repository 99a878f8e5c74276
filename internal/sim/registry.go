package sim

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
)

// Registry is a named collection of experiments. Binaries build one,
// register the experiments they expose, and resolve -run flags against
// it; tests build private registries with cheap options.
type Registry struct {
	mu    sync.RWMutex
	exps  map[string]Experiment
	order []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{exps: make(map[string]Experiment)}
}

// Register adds an experiment under its name. Registration order is
// preserved by Names, so drivers present experiments in a meaningful
// sequence.
func (r *Registry) Register(e Experiment) error {
	name := e.Name()
	if name == "" {
		return fmt.Errorf("sim: experiment with empty name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.exps[name]; dup {
		return fmt.Errorf("sim: experiment %q already registered", name)
	}
	r.exps[name] = e
	r.order = append(r.order, name)
	return nil
}

// MustRegister is Register, panicking on error.
func (r *Registry) MustRegister(e Experiment) {
	if err := r.Register(e); err != nil {
		panic(err)
	}
}

// Get returns the named experiment.
func (r *Registry) Get(name string) (Experiment, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.exps[name]
	return e, ok
}

// Names returns the registered names in registration order.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]string(nil), r.order...)
}

// Resolve expands a -run style selector into experiment names: "all"
// yields every registered experiment, otherwise the selector is a
// comma-separated list where each element must match a name exactly or
// be the unique prefix of one (so "ablations" is spelled "a1…a6" but
// "fig" alone is ambiguous and rejected). A name selected more than once
// is listed once, at its first mention.
func (r *Registry) Resolve(selector string) ([]string, error) {
	if selector == "" || selector == "all" {
		return r.Names(), nil
	}
	var out []string
	add := func(name string) {
		if !slices.Contains(out, name) {
			out = append(out, name)
		}
	}
	for _, part := range strings.Split(selector, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		if _, ok := r.Get(part); ok {
			add(part)
			continue
		}
		var matches []string
		for _, n := range r.Names() {
			if strings.HasPrefix(n, part) {
				matches = append(matches, n)
			}
		}
		switch len(matches) {
		case 0:
			return nil, fmt.Errorf("sim: unknown experiment %q (have: %s)", part, strings.Join(r.Names(), ", "))
		case 1:
			add(matches[0])
		default:
			sort.Strings(matches)
			return nil, fmt.Errorf("sim: ambiguous experiment %q (matches %s)", part, strings.Join(matches, ", "))
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("sim: empty experiment selector")
	}
	return out, nil
}
