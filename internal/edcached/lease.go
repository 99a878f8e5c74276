package edcached

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"
)

// errLeaseLost is the cancellation cause of a shard context whose
// lease renewal was refused: the lease expired and moved on.
var errLeaseLost = errors.New("edcached: shard lease lost")

// withHeartbeat returns a context for computing one leased shard and
// renews the lease every ttl/3 until stop is called. renew reports
// whether the lease is still held; a refusal cancels the context with
// cause errLeaseLost, so the holder stops burning CPU on work someone
// else now owns. stop cancels the context and waits for the heartbeat
// to exit.
func withHeartbeat(parent context.Context, ttl time.Duration, renew func(context.Context) bool) (ctx context.Context, stop func()) {
	ctx, cancel := context.WithCancelCause(parent)
	done := make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(max(ttl/3, time.Millisecond))
		defer tick.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-tick.C:
				if !renew(ctx) {
					cancel(errLeaseLost)
					return
				}
			}
		}
	}()
	return ctx, func() {
		cancel(nil)
		<-done
	}
}

// shard lease states.
const (
	shardPending = "pending"
	shardLeased  = "leased"
	shardDone    = "done"
)

// shard is one contiguous slice of a job's grid under lease management.
type shard struct {
	ids      []int
	state    string
	owner    string
	gen      int // bumped on every lease; stale holders fail Renew
	expiry   time.Time
	attempts int
}

// shardTable is a job's lease ledger. Leases are the scheduling layer
// only: because results flow through the content-addressed store, a
// shard computed twice — by a worker whose lease expired racing its
// replacement — deposits identical bytes, so the table accepts a
// completion from any holder, current or stale, and uses generations
// purely to stop stale workers from renewing (and thereby starving) a
// re-issued lease. All methods are safe for concurrent use.
type shardTable struct {
	mu          sync.Mutex
	shards      []shard
	ttl         time.Duration
	maxAttempts int
	now         func() time.Time // injectable clock for lease tests

	done     int
	poisoned error
	finished chan struct{} // closed when all done or poisoned
}

// newShardTable splits taskIDs [0, total) into n contiguous shards.
func newShardTable(total, n int, ttl time.Duration, maxAttempts int) *shardTable {
	if n < 1 {
		n = 1
	}
	if n > total {
		n = total
	}
	t := &shardTable{
		ttl:         ttl,
		maxAttempts: maxAttempts,
		now:         time.Now,
		finished:    make(chan struct{}),
	}
	for i := 0; i < n; i++ {
		lo, hi := i*total/n, (i+1)*total/n
		ids := make([]int, 0, hi-lo)
		for id := lo; id < hi; id++ {
			ids = append(ids, id)
		}
		t.shards = append(t.shards, shard{ids: ids, state: shardPending})
	}
	if total == 0 {
		close(t.finished) // an empty grid is complete by definition
	}
	return t
}

// claim leases the first pending shard to the worker. ok is false when
// nothing is pending (all leased or done) or the table is poisoned.
func (t *shardTable) claim(worker string) (idx, gen int, ids []int, ok bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.poisoned != nil {
		return 0, 0, nil, false
	}
	for i := range t.shards {
		s := &t.shards[i]
		if s.state != shardPending {
			continue
		}
		s.state = shardLeased
		s.owner = worker
		s.gen++
		s.expiry = t.now().Add(t.ttl)
		return i, s.gen, s.ids, true
	}
	return 0, 0, nil, false
}

// renew extends the lease; it fails when the shard is no longer leased
// under that generation — the holder crashed past its TTL and the shard
// was re-issued (or finished). A false return tells the worker to stop:
// its results are still welcome (complete accepts them), but the lease
// belongs to someone else now.
func (t *shardTable) renew(idx, gen int) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if idx < 0 || idx >= len(t.shards) {
		return false
	}
	s := &t.shards[idx]
	if s.state != shardLeased || s.gen != gen {
		return false
	}
	s.expiry = t.now().Add(t.ttl)
	return true
}

// complete marks the shard done. It accepts the completion regardless
// of lease state or generation — results are idempotent through the
// store, so a stale worker finishing "too late" delivered exactly the
// bytes the current holder would; refusing them only wastes the work.
// Reports whether this call was the one that completed the shard.
func (t *shardTable) complete(idx int) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if idx < 0 || idx >= len(t.shards) {
		return false
	}
	s := &t.shards[idx]
	if s.state == shardDone {
		return false
	}
	s.state = shardDone
	s.owner = ""
	t.done++
	if t.done == len(t.shards) {
		t.finishLocked()
	}
	return true
}

// fail releases a leased shard back to pending. penalize distinguishes
// a real task failure (count it toward poisoning) from a clean
// hand-back (cancellation, drain) that should not burn an attempt.
// Stale generations are ignored: the lease already moved on.
func (t *shardTable) fail(idx, gen int, penalize bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if idx < 0 || idx >= len(t.shards) {
		return
	}
	s := &t.shards[idx]
	if s.state != shardLeased || s.gen != gen {
		return
	}
	s.state = shardPending
	s.owner = ""
	if penalize {
		t.penalizeLocked(s, idx)
	}
}

// expireDue sweeps leases past their TTL back to pending, penalizing
// each — an external worker that silently dies mid-shard burns an
// attempt per expiry, so a crash-looping worker fleet poisons the job
// after maxAttempts instead of spinning forever. Returns the expired
// shard indices for event reporting.
func (t *shardTable) expireDue() []int {
	t.mu.Lock()
	defer t.mu.Unlock()
	var expired []int
	now := t.now()
	for i := range t.shards {
		s := &t.shards[i]
		if s.state == shardLeased && now.After(s.expiry) {
			s.state = shardPending
			s.owner = ""
			expired = append(expired, i)
			t.penalizeLocked(s, i)
		}
	}
	return expired
}

// penalizeLocked charges an attempt and poisons the table at the cap.
func (t *shardTable) penalizeLocked(s *shard, idx int) {
	s.attempts++
	if t.maxAttempts > 0 && s.attempts >= t.maxAttempts && t.poisoned == nil {
		t.poisoned = fmt.Errorf("shard %d failed %d times", idx, s.attempts)
		t.finishLocked()
	}
}

func (t *shardTable) finishLocked() {
	select {
	case <-t.finished:
	default:
		close(t.finished)
	}
}

// wait returns a channel closed when every shard is done or the table
// is poisoned; err distinguishes the two afterwards.
func (t *shardTable) wait() <-chan struct{} { return t.finished }

func (t *shardTable) err() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.poisoned
}

// statuses snapshots every shard for GET /jobs/{id}.
func (t *shardTable) statuses() []ShardStatus {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]ShardStatus, len(t.shards))
	for i := range t.shards {
		s := &t.shards[i]
		out[i] = ShardStatus{
			Shard:    i,
			State:    s.state,
			Owner:    s.owner,
			Attempts: s.attempts,
			Tasks:    len(s.ids),
		}
	}
	return out
}
