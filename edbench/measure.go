package main

import (
	"fmt"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// cpuTime returns the user+system CPU time this process has used.
func cpuTime() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// peakRSSMB returns this process's peak resident set size in MB.
func peakRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return float64(ru.Maxrss) / 1024, nil
}

func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// round is one fixed unit of timed work.
type round struct {
	wall, cpu time.Duration
	alloc     uint64
	points    int
	jobs      int
}

// meter times one round.
type meter struct {
	start time.Time
	cpu0  time.Duration
	a0    uint64
}

func startMeter() (*meter, error) {
	// Every round starts from a collected heap, so the collector's
	// schedule inside a round does not depend on the rounds before it.
	runtime.GC()
	c, err := cpuTime()
	if err != nil {
		return nil, err
	}
	m := &meter{cpu0: c, a0: totalAlloc()}
	m.start = time.Now()
	return m, nil
}

func (m *meter) stop(points, jobs int) (round, error) {
	wall := time.Since(m.start)
	a := totalAlloc()
	c, err := cpuTime()
	if err != nil {
		return round{}, err
	}
	return round{wall: wall, cpu: c - m.cpu0, alloc: a - m.a0, points: points, jobs: jobs}, nil
}

// endToEnd is what an untraced run reports.
type endToEnd struct {
	setup  []float64 // seconds per set-up
	rounds []round
	// roundJobs are the job times of each round. Job percentiles are
	// taken per round and the median over rounds reported, as for every
	// other metric: a round is one fixed mix of jobs whose times differ
	// by orders of magnitude in the in-process sweeps, where pooled
	// percentiles fall between two experiments' clusters and jump
	// between them, and the median over rounds also rejects a minority
	// of rounds that a burst of host contention slowed.
	roundJobs [][]float64
	peakRSS   float64 // MB, after the first round
}

// jobPercentiles returns the job-time p50 and p90 and their sample count.
func (e *endToEnd) jobPercentiles() (p50, p90 float64, n int) {
	var m50, m90 []float64
	for _, js := range e.roundJobs {
		m50 = append(m50, median(js))
		m90 = append(m90, quantile(js, 0.9))
		n += len(js)
	}
	return median(m50), median(m90), n
}

// walls lists the round times for the report.
func (e *endToEnd) walls() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d:", len(e.rounds))
	for _, rd := range e.rounds {
		fmt.Fprintf(&b, " %.3fs", seconds(rd.wall))
	}
	fmt.Fprintf(&b, "; set-ups:")
	for _, s := range e.setup {
		fmt.Fprintf(&b, " %.4gs", s)
	}
	return b.String()
}

func (e *endToEnd) emit(r *report) {
	var wall, cpu, alloc, pps, jps []float64
	for _, rd := range e.rounds {
		wall = append(wall, seconds(rd.wall))
		cpu = append(cpu, seconds(rd.cpu))
		alloc = append(alloc, float64(rd.alloc)/1e6)
		pps = append(pps, float64(rd.points)/seconds(rd.wall))
		jps = append(jps, float64(rd.jobs)/seconds(rd.wall))
	}
	n := len(e.rounds)
	r.add("setup_s", median(e.setup), "s", len(e.setup))
	r.add("wall_s", median(wall), "s", n)
	r.add("cpu_s", median(cpu), "s", n)
	r.add("points_per_s", median(pps), "1/s", n)
	r.add("jobs_per_s", median(jps), "1/s", n)
	p50, p90, jobs := e.jobPercentiles()
	r.add("job_p50_ms", p50, "ms", jobs)
	r.add("job_p90_ms", p90, "ms", jobs)
	r.add("peak_rss_mb", e.peakRSS, "MB", 1)
	r.add("alloc_mb", median(alloc), "MB", n)
}

// flushDirty writes back every dirty page (sync(2)), so writeback of
// earlier work — inputs just written, a previous run's deleted store —
// does not land inside a timed round.
func flushDirty() { syscall.Sync() }

// fsType names the filesystem dir lives on.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext2/3/4"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("statfs type 0x%x", st.Type)
}
