package engine

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/taskset"
	"repro/internal/trace"
	"repro/internal/vtime"
)

// TestStreamEmitsIdenticalEvents: the same configuration run under
// Stream collection delivers, through its sink, exactly the event
// sequence Retain collection appends to the log.
func TestStreamEmitsIdenticalEvents(t *testing.T) {
	cfg := Config{
		Tasks:  table2WithOffset(),
		Faults: fault.Plan{"tau1": fault.OverrunEvery{First: 1, K: 3, Extra: ms(45)}},
		End:    at(6000),
	}
	_, retained := run(t, cfg)

	sunk := trace.NewLog(4096)
	streamCfg := cfg
	streamCfg.Tasks = table2WithOffset()
	streamCfg.Collect = Stream
	streamCfg.Sink = sunk
	e, log := run(t, streamCfg)
	if log.Len() != 0 {
		t.Errorf("streaming run retained %d events in its log", log.Len())
	}
	if sunk.EncodeString() != retained.EncodeString() {
		t.Error("streamed event sequence differs from the retained log")
	}
	if e.Log().Len() != 0 {
		t.Error("Log() must stay empty under Stream")
	}
}

// TestStreamRecyclesJobs: under Stream no job history survives —
// Jobs is nil, JobAt resolves live jobs only — while live jobs stay
// reachable for the detectors' StopJob path. Timers probe instants at
// which jobs are known to be pending: tau1#0 and tau2#0 at 10 ms (both
// released at 0, tau1 running), tau1#1 at 210 ms.
func TestStreamRecyclesJobs(t *testing.T) {
	e, err := New(Config{Tasks: table2WithOffset(), End: at(3000), Collect: Stream})
	if err != nil {
		t.Fatal(err)
	}
	probes := []struct {
		at   int64
		task string
		q    int64
	}{{10, "tau1", 0}, {10, "tau2", 0}, {210, "tau1", 1}}
	ran := 0
	for _, p := range probes {
		p := p
		e.Schedule(at(p.at), func(now vtime.Time) {
			ran++
			if j, ok := e.JobAt(p.task, p.q); !ok || j.Q != p.q || j.TaskName() != p.task || j.Done() {
				t.Errorf("%s#%d at %v: pending job did not resolve through JobAt", p.task, p.q, now)
			}
		})
	}
	e.Run()
	if ran != len(probes) {
		t.Errorf("%d of %d probes ran", ran, len(probes))
	}
	if jobs := e.Jobs("tau1"); jobs != nil {
		t.Errorf("Jobs must be nil under Stream, got %d jobs", len(jobs))
	}
	if _, ok := e.JobAt("tau1", 0); ok {
		t.Error("finished jobs must not resolve under Stream")
	}
	for _, ts := range e.tasks {
		if len(ts.jobs) != 0 {
			t.Errorf("%s retained %d job records under Stream", ts.task.Name, len(ts.jobs))
		}
	}
}

// TestPendingQueueCompacts: consuming the pending queue must not pin
// the popped prefix. An overloaded task (cost > period, no admission
// here) accumulates a backlog; the consumed prefix must still be
// compacted away rather than re-sliced into a growing dead zone.
func TestPendingQueueCompacts(t *testing.T) {
	set := taskset.MustNew(
		taskset.Task{Name: "hog", Priority: 10, Period: ms(10), Deadline: ms(10), Cost: ms(9)},
		taskset.Task{Name: "bg", Priority: 5, Period: ms(100), Deadline: ms(100), Cost: ms(5)},
	)
	e, _ := run(t, Config{Tasks: set, End: at(20000)})
	for _, ts := range e.tasks {
		// After a run every released job of a schedulable task is
		// done; head() must have compacted them all out.
		if h := ts.head(); h == nil && len(ts.pending) != 0 {
			t.Errorf("%s: %d done jobs left in pending", ts.task.Name, len(ts.pending))
		}
		// The queue never held more than the small live window, so
		// its backing array must not have grown with the horizon
		// (2000 hog jobs released).
		if cap(ts.pending) > 64 {
			t.Errorf("%s: pending capacity %d grew with the horizon", ts.task.Name, cap(ts.pending))
		}
	}
}

// TestPendingPrefixNiledOut: consuming the head nils the vacated slot
// at once (so finished jobs are collectible or poolable while the
// array is reused) and the consumed prefix is compacted away once it
// dominates the array.
func TestPendingPrefixNiledOut(t *testing.T) {
	ts := &taskState{task: taskset.Task{Name: "x"}}
	jobs := make([]*Job, 100)
	for i := range jobs {
		jobs[i] = &Job{task: ts, Q: int64(i)}
	}
	ts.pending = append([]*Job(nil), jobs...)
	for i := 0; i < 3; i++ {
		if got := ts.popFront(); got != jobs[i] {
			t.Fatalf("popFront #%d = %v, want job %d", i, got, i)
		}
	}
	if h := ts.head(); h != jobs[3] {
		t.Fatalf("head = %v, want job 3", h)
	}
	if ts.live() != 97 {
		t.Fatalf("live = %d, want 97", ts.live())
	}
	for i := 0; i < ts.phead; i++ {
		if ts.pending[i] != nil {
			t.Errorf("vacated slot %d still references a job", i)
		}
	}
	// Consuming most of the queue triggers the in-place compaction:
	// the prefix must not keep growing with the consumption count.
	for ts.live() > 10 {
		ts.popFront()
	}
	if ts.phead >= 64 {
		t.Errorf("consumed prefix (%d slots) was never compacted", ts.phead)
	}
	if h := ts.head(); h == nil || h.Q != 90 {
		t.Fatalf("head after compaction = %+v, want Q=90", h)
	}
}

// TestStreamConfigValidation: Stream refuses a caller-provided Log,
// and unknown collection modes are rejected.
func TestStreamConfigValidation(t *testing.T) {
	set := table2WithOffset()
	if _, err := New(Config{Tasks: set, End: at(100), Collect: Stream, Log: trace.NewLog(1)}); err == nil {
		t.Error("Stream plus Config.Log must be rejected")
	}
	if _, err := New(Config{Tasks: set, End: at(100), Collect: Collect(99)}); err == nil {
		t.Error("unknown collection mode must be rejected")
	}
}

// TestRetainSinkTees: a sink set on a retained run sees the same
// events the log records.
func TestRetainSinkTees(t *testing.T) {
	sunk := trace.NewLog(1024)
	e, log := run(t, Config{Tasks: table2WithOffset(), End: at(1500), Sink: sunk})
	if sunk.EncodeString() != log.EncodeString() {
		t.Error("retained-run sink saw different events than the log")
	}
	if e.Log() != log {
		t.Error("Log() must return the retained log")
	}
}

// TestJobAtSameInstantCompletion pins JobAt's terminated-job
// contract at the trickiest instant — a detector-class timer at the
// very tick the job completes (tau1#0 at 29 ms, tau2#0 at 58 ms in
// the fault-free Table 2 run). Completions run before detector checks
// at equal instants, so under Stream the job has already left the
// pending queue and must report missing; under Retain the full
// history resolves it and shows it done. Either way, "missing or
// done" is what a same-instant caller (a detector firing at the
// completion tick) must treat as "finished in time".
func TestJobAtSameInstantCompletion(t *testing.T) {
	for _, mode := range []Collect{Retain, Stream} {
		mode := mode
		name := map[Collect]string{Retain: "retain", Stream: "stream"}[mode]
		t.Run(name, func(t *testing.T) {
			e, err := New(Config{Tasks: table2WithOffset(), End: at(3000), Collect: mode})
			if err != nil {
				t.Fatal(err)
			}
			queried := 0
			for _, p := range []struct {
				at   int64
				task string
			}{{29, "tau1"}, {58, "tau2"}} {
				p := p
				e.ScheduleDetector(at(p.at), func(now vtime.Time) {
					queried++
					jj, ok := e.JobAt(p.task, 0)
					switch mode {
					case Stream:
						if ok {
							t.Errorf("%s#0: JobAt resolved a job that completed this instant under Stream", p.task)
						}
					case Retain:
						if !ok || !jj.Done() || jj.FinishedAt != now {
							t.Errorf("%s#0: JobAt under Retain = (%v, %v), want the job done at %v", p.task, jj, ok, now)
						}
					}
				})
			}
			e.Run()
			if queried != 2 {
				t.Fatalf("%d of 2 same-instant probes ran", queried)
			}
		})
	}
}
