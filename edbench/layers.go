package main

import (
	"time"
)

// simExperiments are the experiments whose busy time is reported one
// by one.
var simExperiments = []string{"corpus", "func-corr", "reliability", "hier-epi", "corpus-miss", "headline", "fig3", "phase-epi"}

func perRound(v float64, rounds int) float64 {
	if rounds == 0 {
		return 0
	}
	return v / float64(rounds)
}

func frac(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// emitSimLayer reports the engine's layer from the experiment
// decorator's spans: per traced round, and against the pool capacity
// (workers × traced wall seconds) for the idle fraction.
func emitSimLayer(r *report, spans spanSet, rounds int, capacity float64) {
	runs := spans.named("sim.run:")
	busy := runs.total().Seconds()
	r.add("sim.tasks", perRound(float64(len(runs)), rounds), "count", rounds)
	r.add("sim.task_busy_s", perRound(busy, rounds), "s", rounds)
	r.add("sim.pool_idle_frac", max(0, 1-frac(busy, capacity)), "1", rounds)
	r.add("sim.finish_ms", perRound(millis(spans.named("sim.finish:").total()), rounds), "ms", rounds)
	r.add("sim.sink_ms", perRound(millis(spans.exact("sim.sink").total()), rounds), "ms", rounds)
	for _, e := range simExperiments {
		r.add("sim.busy_s."+e, perRound(spans.exact("sim.run:"+e).total().Seconds(), rounds), "s", rounds)
	}
	ms := runs.in(time.Millisecond)
	r.add("sim.task_p50_ms", median(ms), "ms", len(ms))
	r.add("sim.task_p90_ms", quantile(ms, 0.9), "ms", len(ms))
}

// emitServiceLayer reports the store and edcached layers from the
// store decorator's spans and the client's view of each job of a cold
// and a warm pass.
func emitServiceLayer(r *report, cold, warm []jobRun, spans spanSet) {
	jobs := append(append([]jobRun(nil), cold...), warm...)
	puts, gets, misses := spans.exact("store.put"), spans.exact("store.get"), spans.exact("store.getmiss")
	var written int64
	for _, p := range puts {
		written += p.Bytes
	}
	n := float64(len(jobs))
	r.add("store.puts", frac(float64(len(puts)), n), "count/job", len(puts))
	r.add("store.put_io_us_p50", median(puts.in(time.Microsecond)), "us", len(puts))
	fsyncs := spans.exact("store.fsync")
	r.add("store.fsync_us_p50", median(fsyncs.in(time.Microsecond)), "us", len(fsyncs))
	r.add("store.bytes_written", frac(float64(written), n), "B/job", len(puts))
	r.add("store.gets", frac(float64(len(gets)+len(misses)), n), "count/job", len(gets)+len(misses))
	r.add("store.get_io_us_p50", median(gets.in(time.Microsecond)), "us", len(gets))
	r.add("store.hit_frac", frac(float64(len(gets)), float64(len(gets)+len(misses))), "1", len(gets)+len(misses))

	var submit, queue, compute, assemble, result []float64
	var events, shards, extLeases, expired, refused, points, extPts float64
	for _, j := range jobs {
		if j.refused {
			refused++
		}
		if j.err != nil {
			continue
		}
		submit = append(submit, millis(j.accepted.Sub(j.start)))
		queue = append(queue, millis(j.firstLease.Sub(j.accepted)))
		compute = append(compute, millis(j.lastDone.Sub(j.firstLease)))
		assemble = append(assemble, millis(j.doneAt.Sub(j.lastDone)))
		result = append(result, millis(j.end.Sub(j.resultAt)))
		events += float64(j.events)
		shards += float64(len(j.shardBy))
		extLeases += float64(j.extLease)
		expired += float64(j.expired)
		points += float64(j.points)
		extPts += float64(j.extPts)
	}
	k := len(submit)
	r.add("edcached.submit_ms_p50", median(submit), "ms", k)
	r.add("edcached.queue_ms_p50", median(queue), "ms", k)
	r.add("edcached.compute_ms_p50", median(compute), "ms", k)
	r.add("edcached.assemble_ms_p50", median(assemble), "ms", k)
	r.add("edcached.result_ms_p50", median(result), "ms", k)
	r.add("edcached.events_per_job", frac(events, float64(k)), "count", k)
	r.add("edcached.shards_per_job", frac(shards, float64(k)), "count", k)
	// The external worker rebuilds its registry on every claim; its
	// builds are its leases. Its task executions cannot be seen from
	// here: they are the points of the shards it completed in the cold
	// pass, where every point misses the store, and none in the warm
	// pass, where every point is a hit.
	builds := float64(len(spans.exact("edcached.registry"))) + extLeases
	r.add("edcached.registry_builds", frac(builds, float64(k)), "count/job", k)
	extRuns := 0.0
	for _, j := range cold {
		if j.err == nil {
			extRuns += float64(j.extPts)
		}
	}
	r.add("edcached.compute_per_point", frac(float64(len(spans.named("sim.run:")))+extRuns, points), "1", k)
	r.add("edcached.external_point_frac", frac(extPts, points), "1", k)
	r.add("edcached.lease_expiries", expired, "count", k)
	r.add("edcached.refused", refused, "count", len(jobs))
}
