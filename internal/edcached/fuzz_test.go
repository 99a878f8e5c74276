package edcached

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"edcache/internal/sim"
)

// fuzzRegistry is benchRegistry without the experiments that panic or
// fail on purpose (other tests pin their recovery paths), with grids
// capped at 16 points so that no fuzzed body allocates a huge grid.
func fuzzRegistry(o GridOptions) *sim.Registry {
	o.Instructions = min(o.Instructions, 16)
	full := benchRegistry(o)
	reg := sim.NewRegistry()
	for _, name := range []string{"sweep", "summed", "slowgrid"} {
		e, _ := full.Get(name)
		reg.MustRegister(e)
	}
	return reg
}

// fuzzServer is a Server over fuzzRegistry with no in-process workers,
// so an accepted job stays queued and computes nothing, and with
// unbounded shard attempts, so failed completions never poison a job.
func fuzzServer(f *testing.F) *Server {
	srv, _ := newTestServer(f, func(c *Config) {
		c.Registry = fuzzRegistry
		c.Workers = 0
		c.MaxShardAttempts = math.MaxInt32
	})
	return srv
}

// post sends body to path through the server's full handler chain.
func post(srv *Server, path string, body []byte) *httptest.ResponseRecorder {
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	return w
}

// FuzzJobSpec sends arbitrary bytes to POST /jobs. Every answer must be
// below 500; recoverMiddleware turns a handler panic into a 500, so
// this catches panics too. Accepted jobs are cancelled at once, so the
// queue limit does not shut the fuzzer out of Submit.
func FuzzJobSpec(f *testing.F) {
	for _, seed := range []string{
		`{"experiment":"summed","seed":3,"options":{"instructions":4},"shards":2,"deadlineMS":60000}`,
		`{"experiment":"s"}`,
		`{"experiment":"sweep","shards":-1,"deadlineMS":-1}`,
		`{"experiment":"sweep","shards":9223372036854775807,"deadlineMS":18446744073710}`,
		`{"experiment":"slowgrid","options":{"instructions":-5,"trials":-1,"workers":-1}}`,
		`{"experiment":"sweep","seed":"x"}`,
		`{}`, `[]`, `null`, `not json`, ``,
		`{"experiment":"reliability","options":{"trials":1000000,"workers":1000000}}`,
	} {
		f.Add([]byte(seed))
	}
	srv := fuzzServer(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		w := post(srv, "/jobs", body)
		if w.Code >= 500 {
			t.Fatalf("POST /jobs %q: status %d: %s", body, w.Code, w.Body)
		}
		if w.Code == http.StatusAccepted {
			var st JobStatus
			if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
				t.Fatalf("202 body: %v", err)
			}
			srv.Manager().Cancel(st.ID)
		}
	})
}

// FuzzClaim sends arbitrary bytes to /shards/claim, /shards/renew and
// /shards/complete, each of which must answer below 500. One queued
// job gives claims real shards to lease, and renewals and completions
// real coordinates to hit.
func FuzzClaim(f *testing.F) {
	for _, seed := range []string{
		`{"worker":"w"}`,
		`{"worker":"w","job":"j1","shard":0,"gen":1}`,
		`{"worker":"w","job":"j1","shard":3,"gen":0}`,
		`{"job":"j1","shard":-1,"gen":-1}`,
		`{"job":"j1","shard":9223372036854775807}`,
		`{"job":"nope","shard":0}`,
		`{"worker":""}`, `{}`, `[]`, `null`, `not json`, ``,
	} {
		f.Add([]byte(seed))
	}
	srv := fuzzServer(f)
	if w := post(srv, "/jobs", []byte(`{"experiment":"sweep","options":{"instructions":16},"shards":4}`)); w.Code != http.StatusAccepted {
		f.Fatalf("submit: status %d: %s", w.Code, w.Body)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, path := range []string{"/shards/claim", "/shards/renew", "/shards/complete"} {
			if w := post(srv, path, body); w.Code >= 500 {
				t.Fatalf("POST %s %q: status %d: %s", path, body, w.Code, w.Body)
			}
		}
	})
}
