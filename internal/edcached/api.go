// Package edcached is the fault-tolerant experiment service: an
// HTTP/JSON daemon that owns a content-addressed result store
// (internal/store) as a shared cache and supervises sweep jobs over the
// experiment engine (internal/sim).
//
// A job names an experiment, a seed and grid-shaping options; its grid
// is split into shards leased to workers — in-process pool workers
// and/or external `edcached -worker` processes claiming over HTTP —
// under a TTL-based lease protocol. Because every grid point is
// checkpointed into the store under a content address that covers the
// whole run identity, shard execution is idempotent: a crashed or hung
// worker's lease expires, the shard is re-leased, and the recompute
// (or store replay) yields the same bytes. The completed job's result
// is byte-identical to a solo `experiments` run, regardless of which
// workers ran which shards how many times.
//
// Degradation is graceful by construction: the job queue is bounded
// (429 + Retry-After), every non-streaming request carries a timeout,
// SIGTERM drains — in-flight shards checkpoint to the store, the
// journal keeps the job resumable by the next server — and a panicking
// experiment quarantines its job, never the process.
package edcached

// This file is the wire contract: every request/response body the
// server speaks, shared verbatim by the worker client and the tests.

import "edcache/internal/sim"

// GridOptions is the client-settable subset of the experiment options
// that shape a job's grid and results. Zero values mean the package
// defaults (see experiments.Options). Workers here is the engine's
// inner Monte-Carlo fan-out, proven result-neutral — it shapes speed,
// not bytes — so it is safe to let clients tune it per job. Submit
// caps Instructions at 10 000 000 and Trials at 1 000 000.
type GridOptions struct {
	Instructions int `json:"instructions,omitempty"`
	Trials       int `json:"trials,omitempty"`
	Workers      int `json:"workers,omitempty"`
}

// JobSpec is the body of POST /jobs.
type JobSpec struct {
	// Experiment selects one experiment: an exact name or unique prefix,
	// resolved like the -run flag. Selectors matching several
	// experiments are rejected — a job is one grid.
	Experiment string `json:"experiment"`
	// Seed is the master seed (part of the store scope).
	Seed int64 `json:"seed"`
	// Options shape the grid and the result bytes.
	Options GridOptions `json:"options"`
	// Shards overrides the server's default shard count (capped at the
	// grid size; 0 = server default).
	Shards int `json:"shards,omitempty"`
	// DeadlineMS caps the job's total runtime in milliseconds, at most
	// math.MaxInt64/1e6 (0 = server default; the default may be "none").
	DeadlineMS int64 `json:"deadlineMS,omitempty"`
}

// JobState is a job's lifecycle state.
type JobState string

const (
	JobQueued    JobState = "queued"    // accepted, shards not yet claimable
	JobRunning   JobState = "running"   // shards being leased and computed
	JobDone      JobState = "done"      // all shards deposited, Finish applied
	JobFailed    JobState = "failed"    // a task error or the deadline ended it
	JobCancelled JobState = "cancelled" // DELETE /jobs/{id} (or POST .../cancel)
	// JobQuarantined is the panic containment state: the experiment's
	// own code panicked (in Grid, Run beyond the runner's shield, or
	// Finish). The job is terminal and inspectable; the server and every
	// other job keep running.
	JobQuarantined JobState = "quarantined"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	switch s {
	case JobDone, JobFailed, JobCancelled, JobQuarantined:
		return true
	}
	return false
}

// ShardStatus describes one shard in GET /jobs/{id}.
type ShardStatus struct {
	Shard    int    `json:"shard"`
	State    string `json:"state"` // pending, leased, done
	Owner    string `json:"owner,omitempty"`
	Attempts int    `json:"attempts"`
	Tasks    int    `json:"tasks"`
}

// JobStatus is the body of GET /jobs/{id}.
type JobStatus struct {
	ID          string         `json:"id"`
	Spec        JobSpec        `json:"spec"`
	State       JobState       `json:"state"`
	Error       string         `json:"error,omitempty"`
	PointsDone  int            `json:"pointsDone"`
	TotalPoints int            `json:"totalPoints"`
	Shards      []ShardStatus  `json:"shards,omitempty"`
	Cache       sim.CacheStats `json:"cache"`
}

// Event is one line of the GET /jobs/{id}/events NDJSON stream. Seq is
// a per-job sequence number, so a reconnecting client resumes with
// ?from=<lastSeq+1> and misses nothing.
type Event struct {
	Seq  int    `json:"seq"`
	Type string `json:"type"` // "state", "shard" or "point"

	// state events
	State JobState `json:"state,omitempty"`
	Error string   `json:"error,omitempty"`

	// shard events
	Shard  int    `json:"shard,omitempty"`
	What   string `json:"what,omitempty"` // leased, done, expired, failed
	Worker string `json:"worker,omitempty"`

	// point events
	Task   int    `json:"task,omitempty"`
	Label  string `json:"label,omitempty"`
	Cached bool   `json:"cached,omitempty"`
}

// ClaimRequest is the body of POST /shards/claim.
type ClaimRequest struct {
	// Worker names the claimant in statuses and events.
	Worker string `json:"worker"`
}

// ClaimResponse hands a worker everything it needs to compute a shard
// against the shared store: the lease coordinates plus the job's full
// run identity. StoreDir and Scope let an external worker open the same
// store and derive the same content addresses the server does — that
// shared addressing is what makes re-executed shards idempotent.
type ClaimResponse struct {
	Job   string `json:"job"`
	Shard int    `json:"shard"`
	// Gen is the lease generation; renewals and (for bookkeeping)
	// completions quote it so a worker whose lease expired and was
	// re-issued cannot keep renewing the new holder's lease.
	Gen   int   `json:"gen"`
	TTLMS int64 `json:"ttlMS"`

	Experiment string      `json:"experiment"` // resolved exact name
	Seed       int64       `json:"seed"`
	Options    GridOptions `json:"options"`
	TaskIDs    []int       `json:"taskIDs"`
	StoreDir   string      `json:"storeDir"`
	Scope      []string    `json:"scope"`
}

// ShardRef identifies a lease in POST /shards/renew and
// POST /shards/complete.
type ShardRef struct {
	Worker string `json:"worker"`
	Job    string `json:"job"`
	Shard  int    `json:"shard"`
	Gen    int    `json:"gen"`
}

// StoreStatus is the body of GET /storez: the shared store's health
// plus the service's own load, in one scrape-friendly object.
type StoreStatus struct {
	Dir             string `json:"dir"`
	Hits            uint64 `json:"hits"`
	Misses          uint64 `json:"misses"`
	Quarantined     uint64 `json:"quarantined"`
	QuarantineFiles uint64 `json:"quarantineFiles"`
	Jobs            int    `json:"jobs"`
	LiveJobs        int    `json:"liveJobs"`
	Draining        bool   `json:"draining"`
}
