package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"edcache/internal/edcached"
	"edcache/internal/sim"
	"edcache/internal/store"
)

// span is one timed interval at a layer boundary, recorded by the
// benchmark's own code around a call into the layer's public function.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Job    string `json:"job,omitempty"`
	Start  int64  `json:"start_ns"` // since the log's origin
	End    int64  `json:"end_ns"`
	Bytes  int64  `json:"bytes,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// spanLog keeps spans in memory; they are written out when the run
// ends. A nil *spanLog records nothing, so untraced code paths carry no
// decorators at all.
type spanLog struct {
	origin time.Time
	on     atomic.Bool // spans are recorded only while on
	next   atomic.Int64
	mu     sync.Mutex
	spans  []span
}

func newSpanLog() *spanLog { return &spanLog{origin: time.Now()} }

// exact returns the spans with exactly this name.
func (s spanSet) exact(name string) spanSet {
	var out spanSet
	for _, x := range s {
		if x.Name == name {
			out = append(out, x)
		}
	}
	return out
}

func (l *spanLog) id() int64 { return l.next.Add(1) }

func (l *spanLog) record(id, parent int64, name, job string, start, end time.Time, bytes int64) {
	if !l.on.Load() {
		return
	}
	s := span{ID: id, Parent: parent, Name: name, Job: job,
		Start: int64(start.Sub(l.origin)), End: int64(end.Sub(l.origin)), Bytes: bytes}
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

// mark returns a position; since(mark) is every span recorded after it.
func (l *spanLog) mark() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.spans)
}

func (l *spanLog) since(mark int) spanSet {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append(spanSet(nil), l.spans[mark:]...)
}

func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	l.mu.Lock()
	b, err := json.Marshal(l.spans)
	l.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// spanSet is a slice of recorded spans.
type spanSet []span

func (s spanSet) named(prefix string) spanSet {
	var out spanSet
	for _, x := range s {
		if strings.HasPrefix(x.Name, prefix) {
			out = append(out, x)
		}
	}
	return out
}

func (s spanSet) total() time.Duration {
	var t time.Duration
	for _, x := range s {
		t += x.dur()
	}
	return t
}

// in returns the spans' durations in the given unit.
func (s spanSet) in(unit time.Duration) []float64 {
	out := make([]float64, len(s))
	for i, x := range s {
		out[i] = float64(x.dur()) / float64(unit)
	}
	return out
}

// ---- decorators ----

// tracedExperiment times an experiment's Run and Finish.
type tracedExperiment struct {
	sim.Experiment
	log    *spanLog
	parent int64
}

func (e tracedExperiment) Run(t sim.Task, rng *rand.Rand) (sim.Result, error) {
	start := time.Now()
	res, err := e.Experiment.Run(t, rng)
	e.log.record(e.log.id(), e.parent, "sim.run:"+e.Name(), "", start, time.Now(), 0)
	return res, err
}

func (e tracedExperiment) Finish(results []sim.Result) ([]sim.Result, error) {
	start := time.Now()
	out, err := sim.Finish(e.Experiment, results)
	e.log.record(e.log.id(), e.parent, "sim.finish:"+e.Name(), "", start, time.Now(), 0)
	return out, err
}

// wrapRegistry returns reg with every experiment traced (reg itself
// when l is nil). Registration order is kept.
func (l *spanLog) wrapRegistry(reg *sim.Registry, parent int64) *sim.Registry {
	if l == nil {
		return reg
	}
	out := sim.NewRegistry()
	for _, n := range reg.Names() {
		e, _ := reg.Get(n)
		out.MustRegister(tracedExperiment{Experiment: e, log: l, parent: parent})
	}
	return out
}

// wrapRegistryFunc counts and times edcached's registry builds and
// traces the experiments they return.
func (l *spanLog) wrapRegistryFunc(inner edcached.RegistryFunc) edcached.RegistryFunc {
	if l == nil {
		return inner
	}
	return func(o edcached.GridOptions) *sim.Registry {
		start := time.Now()
		reg := l.wrapRegistry(inner(o), 0)
		l.record(l.id(), 0, "edcached.registry", "", start, time.Now(), 0)
		return reg
	}
}

// tracedFS times the store's file operations: a put is Create through
// Close of the temporary entry file, a get Open through Close.
type tracedFS struct {
	store.FS
	log *spanLog
}

func (l *spanLog) wrapFS(fs store.FS) store.FS {
	if l == nil {
		return fs
	}
	return tracedFS{FS: fs, log: l}
}

func (f tracedFS) Create(path string) (store.File, error) {
	start := time.Now()
	fl, err := f.FS.Create(path)
	if err != nil {
		return nil, err
	}
	return &tracedFile{File: fl, log: f.log, id: f.log.id(), name: "store.put", start: start}, nil
}

func (f tracedFS) Open(path string) (store.File, error) {
	start := time.Now()
	fl, err := f.FS.Open(path)
	if err != nil {
		f.log.record(f.log.id(), 0, "store.getmiss", "", start, time.Now(), 0)
		return nil, err
	}
	return &tracedFile{File: fl, log: f.log, id: f.log.id(), name: "store.get", start: start}, nil
}

type tracedFile struct {
	store.File
	log   *spanLog
	id    int64
	name  string
	start time.Time
	bytes int64
}

func (t *tracedFile) Write(b []byte) (int, error) {
	n, err := t.File.Write(b)
	t.bytes += int64(n)
	return n, err
}

func (t *tracedFile) Sync() error {
	start := time.Now()
	err := t.File.Sync()
	t.log.record(t.log.id(), t.id, "store.fsync", "", start, time.Now(), 0)
	return err
}

func (t *tracedFile) Close() error {
	err := t.File.Close()
	t.log.record(t.id, 0, t.name, "", t.start, time.Now(), t.bytes)
	return err
}
