package core

import (
	"fmt"
	"io"

	"edcache/internal/trace"
)

// Trace capture from live simulation: the ROADMAP's missing loop
// closer. RunStreamCapture and RunDutyCycleCapture tee every replayed
// instruction into a v2 trace sink while the run proceeds normally, so
// a live segment — a duty-cycle schedule, a generator stream, anything
// — becomes an archived trace that later offline sweeps replay
// byte-identically (and, because the tee is transparent, with
// bit-identical cpu.Stats).

// teeStream is the common surface of trace.TeeStream/TeeBatchStream.
type teeStream interface {
	trace.Stream
	Err() error
}

// RunStreamCapture replays the stream on the system in mode m (a
// one-member RunGroup) with live capture: the stream is teed
// into sink as a v2 trace while it replays. Phase annotations are
// captured automatically (o.Phases is forced on for phase-annotated
// streams), so the captured file reproduces the per-phase segmentation
// of the live report. The sink holds a complete, finalised container
// when RunStreamCapture returns without error.
func (s *System) RunStreamCapture(name string, stream trace.Stream, m Mode, sink io.Writer, o trace.V2Options) (Report, error) {
	if trace.HasPhases(stream) {
		o.Phases = true
	}
	vw, err := trace.NewV2Writer(sink, o)
	if err != nil {
		return Report{}, err
	}
	var tee teeStream
	if bs, ok := stream.(trace.BatchStream); ok {
		tee = trace.TeeBatch(bs, vw)
	} else {
		tee = trace.Tee(stream, vw)
	}
	reps, err := RunGroup(name, tee, []GroupMember{{s, m}})
	if err != nil {
		return Report{}, err
	}
	if err := tee.Err(); err != nil {
		return Report{}, fmt.Errorf("core: capture sink: %w", err)
	}
	if err := vw.Close(); err != nil {
		return Report{}, fmt.Errorf("core: capture sink: %w", err)
	}
	return reps[0], nil
}

// RunDutyCycleCapture is RunDutyCycle with live capture: the whole
// schedule is recorded into sink as one phase-annotated v2 trace, each
// instruction stamped with its schedule-phase index (overriding any
// phase ids the workload generators emit — the schedule is the regime
// of interest here). Replaying the captured file through RunGroup
// yields per-phase metrics segmented exactly at the live schedule's
// boundaries. Schedules longer than 256 phases do not fit the phase-id
// byte and are rejected.
func (s *System) RunDutyCycleCapture(phases []Phase, sink io.Writer, o trace.V2Options) (DutyCycleResult, error) {
	if len(phases) > 256 {
		return DutyCycleResult{}, fmt.Errorf("core: %d schedule phases exceed the 256 phase ids of the trace format", len(phases))
	}
	o.Phases = true
	vw, err := trace.NewV2Writer(sink, o)
	if err != nil {
		return DutyCycleResult{}, err
	}
	out, err := s.runDutyCycle(phases, func(i int, ph Phase) (Report, error) {
		tee := trace.TeeBatch(trace.WithPhase(ph.Workload.Stream(), uint8(i)), vw)
		reps, err := RunGroup(ph.Workload.Name, tee, []GroupMember{{s, ph.Mode}})
		if err != nil {
			return Report{}, err
		}
		if tee.Err() != nil {
			return Report{}, fmt.Errorf("capture sink: %w", tee.Err())
		}
		return reps[0], nil
	})
	if err != nil {
		return DutyCycleResult{}, err
	}
	if err := vw.Close(); err != nil {
		return DutyCycleResult{}, fmt.Errorf("core: capture sink: %w", err)
	}
	return out, nil
}
