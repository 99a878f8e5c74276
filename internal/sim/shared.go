package sim

import "sync"

// Shared memoizes lazily-built shared resources for concurrent grid
// tasks: the first Get for a key runs the build function exactly once,
// every other Get — concurrent or later — waits for and shares that
// one result. It generalizes the pattern every experiment family had
// hand-rolled for its sized System pair (and now also backs the
// experiments' slab memo): expensive immutable values built once per
// run, replayed from every grid point.
//
// Distinct keys build concurrently (the map lock is not held during
// builds); a build's outcome — value or error — is cached either way,
// which is the right semantics for deterministic builds: retrying
// would do the identical work and fail identically.
//
// The zero Shared is not usable; construct with NewShared.
type Shared[K comparable, V any] struct {
	build func(K) (V, error)

	mu sync.Mutex
	m  map[K]*sharedEntry[V]
}

// sharedEntry is one key's build slot.
type sharedEntry[V any] struct {
	once sync.Once
	v    V
	err  error
}

// NewShared returns a cache whose missing entries are built by build.
// build must be safe for concurrent calls on distinct keys and should
// be deterministic per key — callers treat the cached value as
// equivalent to a fresh build.
func NewShared[K comparable, V any](build func(K) (V, error)) *Shared[K, V] {
	return &Shared[K, V]{build: build, m: make(map[K]*sharedEntry[V])}
}

// Get returns the key's shared value, building it on first use.
func (s *Shared[K, V]) Get(k K) (V, error) {
	s.mu.Lock()
	e := s.m[k]
	if e == nil {
		e = &sharedEntry[V]{}
		s.m[k] = e
	}
	s.mu.Unlock()
	e.once.Do(func() { e.v, e.err = s.build(k) })
	return e.v, e.err
}

// Len reports how many keys have been requested. Tests use it to pin how
// many values a run built.
func (s *Shared[K, V]) Len() int { s.mu.Lock(); defer s.mu.Unlock(); return len(s.m) }
