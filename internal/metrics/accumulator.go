package metrics

import (
	"slices"

	"repro/internal/trace"
	"repro/internal/vtime"
)

// Accumulator is the streaming counterpart of Analyze: it consumes
// trace events one at a time (it implements trace.Sink, so the engine
// can feed it directly in streaming collection mode) and maintains
// per-task counts, success ratios, response min/mean/max and an
// ε-approximate response-time quantile sketch — without retaining
// jobs or events. Transient per-job state is kept only for jobs that
// have not yet terminated, so memory is bounded by the live-job
// backlog, not the horizon.
//
// All state lives in one per-task table: each task's record holds its
// summary, its sketch, its cycle-tracking state and its live jobs,
// stored by value in job-ordinal order. Records sit in a slice in
// first-seen order behind a name index and a one-entry last-task
// cache, so an Append costs one task lookup and no allocation once
// every task's backlog and sketch have reached their working size.
// Every whole-table walk follows the slice, never a map.
//
// For any event sequence the engine emits, Report() agrees with
// Analyze on every TaskSummary field exactly; percentiles answer from
// the sketch within DefaultSketchEpsilon rank error (both pinned by
// the cross-mode equivalence tests). Like Analyze, the per-job event
// order assumed is the engine's: a job's terminal event (end or stop)
// is its last.
type Accumulator struct {
	eps   float64
	tasks []taskAcc      // first-seen order
	index map[string]int // task name → position in tasks
	last  int            // position of the previous Append's task

	// cycling is set by the first CycleMark. Cycle tracking backs the
	// engine's steady-state fast-forward (engine.CycleObserver):
	// CycleMark snapshots per-task counters at a hyperperiod boundary
	// and resets the per-cycle sketches; ExtrapolateCycles folds K
	// identical cycles in analytically. Plain runs never fill a cycle
	// sketch.
	cycling bool
}

// taskAcc is one task's record in the accumulator's table.
type taskAcc struct {
	sum    TaskSummary
	sketch *Sketch // successful responses; nil until the first
	live   liveJobs

	base  cycleBase // counters at the last CycleMark
	cycle *Sketch   // successful responses since the last CycleMark

	// summarized is false for a record that exists only to hold live
	// jobs restored or absorbed from a state listing no summary for
	// the task; such a task stays out of State().Tasks and Report()
	// until an event for it arrives.
	summarized bool
}

// cycleBase is a task's counter snapshot at the last CycleMark; the
// delta to the current counters is exactly one hyperperiod cycle when
// the engine detects a fingerprint match at the next boundary.
type cycleBase struct {
	released, finished, stopped, missed, failed, detected int
	respSum                                               vtime.Duration
	respN                                                 int64
}

// liveJob is the transient state of a job seen but not yet
// terminated: exactly what summarizing its terminal event requires.
type liveJob struct {
	q        int64
	release  vtime.Time
	missed   bool
	detected bool
}

// liveJobs holds one task's live jobs by value in ascending ordinal
// order, in buf[head:]. The engine releases a task's jobs in ordinal
// order and mostly terminates them in it too, so new jobs land at the
// back and terminations consume the front by advancing head; the
// consumed prefix is reclaimed before the buffer would grow. Anything
// else (a job dropped behind its elders, a re-sighted ordinal) shifts
// in place.
type liveJobs struct {
	buf  []liveJob
	head int
}

// jobs returns the live jobs in ordinal order.
func (l *liveJobs) jobs() []liveJob { return l.buf[l.head:] }

// find returns the index in jobs() of ordinal q, or where to insert it.
// The search is inlined by hand: slices.BinarySearchFunc's comparator
// calls made BenchmarkAccumulatorAppend about 15% slower.
func (l *liveJobs) find(q int64) (int, bool) {
	js := l.jobs()
	lo, hi := 0, len(js)
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); js[m].q < q {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(js) && js[lo].q == q
}

// insert places j at index i of jobs().
func (l *liveJobs) insert(i int, j liveJob) {
	if l.head > 0 && len(l.buf) == cap(l.buf) {
		n := copy(l.buf, l.buf[l.head:])
		l.buf, l.head = l.buf[:n], 0
	}
	l.buf = append(l.buf, j)
	js := l.jobs()
	copy(js[i+1:], js[i:])
	js[i] = j
}

// remove drops index i of jobs().
func (l *liveJobs) remove(i int) {
	if i == 0 {
		l.head++
	} else {
		l.buf = slices.Delete(l.buf, l.head+i, l.head+i+1)
	}
	if l.head == len(l.buf) {
		l.buf, l.head = l.buf[:0], 0
	}
}

// NewAccumulator returns an empty accumulator using the default
// sketch error bound.
func NewAccumulator() *Accumulator { return NewAccumulatorEpsilon(DefaultSketchEpsilon) }

// NewAccumulatorEpsilon returns an empty accumulator whose percentile
// sketches carry rank-error bound eps.
func NewAccumulatorEpsilon(eps float64) *Accumulator {
	return &Accumulator{eps: eps, index: map[string]int{}}
}

// task returns the position of name's record, creating an
// unsummarized one on first sight.
func (a *Accumulator) task(name string) int {
	i, ok := a.index[name]
	if !ok {
		i = len(a.tasks)
		a.tasks = append(a.tasks, taskAcc{sum: TaskSummary{Task: name}})
		a.index[name] = i
	}
	return i
}

// summary returns name's record, creating it on first sight and
// listing it in the summaries. The pointer is valid until the next
// record is created.
func (a *Accumulator) summary(name string) *taskAcc {
	t := &a.tasks[a.task(name)]
	t.summarized = true
	return t
}

// Append consumes one trace event (trace.Sink).
func (a *Accumulator) Append(e trace.Event) {
	if e.Task == "" || e.Job < 0 {
		return
	}
	// Only the event kinds Analyze folds into job records may create
	// one here; scheduler detail (begin/preempt/resume, detector
	// releases) must not inflate the released count.
	switch e.Kind {
	case trace.JobRelease, trace.JobBegin, trace.JobEnd, trace.JobStopped,
		trace.DeadlineMiss, trace.FaultDetected, trace.AllowanceGrant:
	default:
		return
	}
	if a.last >= len(a.tasks) || a.tasks[a.last].sum.Task != e.Task {
		a.last = a.task(e.Task)
		a.tasks[a.last].summarized = true
	}
	t := &a.tasks[a.last]
	i, seen := t.live.find(e.Job)
	if !seen {
		// First sight of the job counts it as released, mirroring
		// Analyze's distinct-job accounting.
		t.live.insert(i, liveJob{q: e.Job})
		t.sum.Released++
	}
	lj := &t.live.jobs()[i]
	switch e.Kind {
	case trace.JobRelease:
		lj.release = e.At
	case trace.JobEnd:
		a.terminate(t, i, e.At, false)
	case trace.JobStopped:
		a.terminate(t, i, e.At, true)
	case trace.DeadlineMiss:
		if !lj.missed {
			lj.missed = true
			t.sum.Missed++
			t.sum.Failed++
		}
	case trace.FaultDetected:
		if !lj.detected {
			lj.detected = true
			t.sum.Detected++
		}
	}
}

// terminate folds the terminal event of live job i into its task's
// summary and releases the transient record.
func (a *Accumulator) terminate(t *taskAcc, i int, at vtime.Time, stopped bool) {
	lj, s := t.live.jobs()[i], &t.sum
	resp := at.Sub(lj.release)
	if stopped {
		s.Stopped++
		if !lj.missed {
			// A deadline miss has already been counted as the job's
			// failure; otherwise the stop is it.
			s.Failed++
		}
	} else {
		s.Finished++
	}
	if resp > s.MaxResponse {
		s.MaxResponse = resp
	}
	if s.respN == 0 || resp < s.MinResponse {
		s.MinResponse = resp
	}
	s.respSum += resp
	s.respN++
	if !stopped && !lj.missed {
		// The percentile sketch covers successful responses only,
		// matching ResponsePercentile's exact path.
		if t.sketch == nil {
			t.sketch = NewSketch(a.eps)
		}
		t.sketch.Add(resp)
		if a.cycling {
			if t.cycle == nil {
				t.cycle = NewSketch(a.eps)
			}
			t.cycle.Add(resp)
		}
	}
	t.live.remove(i)
}

// CycleMark records a hyperperiod boundary (engine.CycleObserver): it
// snapshots every task's counters and starts a fresh per-cycle sketch,
// so that if the engine proves the next boundary revisits this exact
// state, the counter deltas and cycle sketches describe one full cycle.
func (a *Accumulator) CycleMark() {
	a.cycling = true
	for i := range a.tasks {
		t := &a.tasks[i]
		s := &t.sum
		t.base = cycleBase{
			released: s.Released, finished: s.Finished, stopped: s.Stopped,
			missed: s.Missed, failed: s.Failed, detected: s.Detected,
			respSum: s.respSum, respN: s.respN,
		}
		if t.cycle != nil {
			t.cycle.reset()
		}
	}
}

// ExtrapolateCycles folds k additional cycles of length h into the
// summaries (engine.CycleObserver), where one cycle is the delta since
// the last CycleMark: counters and response-moment sums scale
// linearly (so Released/Finished/…/MeanResponse stay exact — the
// simulated cycle already contributed the Min/Max extremes), the
// per-cycle sketch is scale-merged k-fold (ε-preserving, see
// Sketch.ScaleMerge) and folded into the main sketch with a single
// Merge — so percentile bounds widen by exactly one additive merge
// (2ε total), independent of k. Live jobs — the backlog crossing the
// boundary — are re-keyed into the post-jump cycle: job index
// advanced by k·jobsPerCycle of their task, release shifted by k·h,
// matching the engine's own state jump.
func (a *Accumulator) ExtrapolateCycles(k int64, h vtime.Duration, jobsPerCycle map[string]int64) {
	if k <= 0 || !a.cycling {
		return
	}
	ki := int(k)
	shift := vtime.Duration(k) * h
	for i := range a.tasks {
		t := &a.tasks[i]
		s, b := &t.sum, t.base
		s.Released += ki * (s.Released - b.released)
		s.Finished += ki * (s.Finished - b.finished)
		s.Stopped += ki * (s.Stopped - b.stopped)
		s.Missed += ki * (s.Missed - b.missed)
		s.Failed += ki * (s.Failed - b.failed)
		s.Detected += ki * (s.Detected - b.detected)
		s.respSum += vtime.Duration(k) * (s.respSum - b.respSum)
		s.respN += k * (s.respN - b.respN)
		if cs := t.cycle; cs != nil && cs.N() > 0 {
			cs.ScaleMerge(k)
			if t.sketch == nil {
				t.sketch = NewSketch(a.eps)
			}
			t.sketch.Merge(cs)
			cs.reset()
		}
		live, dq := t.live.jobs(), k*jobsPerCycle[s.Task]
		for j := range live {
			live[j].q += dq
			live[j].release = live[j].release.Add(shift)
		}
	}
}

// Live returns the number of jobs currently tracked as released but
// not terminated — the accumulator's only horizon-dependent state,
// bounded by the scheduling backlog.
func (a *Accumulator) Live() int {
	n := 0
	for i := range a.tasks {
		n += len(a.tasks[i].live.jobs())
	}
	return n
}

// Report snapshots the accumulated summaries as a *Report. The report
// carries no per-job records (Jobs is nil); ResponsePercentile
// answers from the quantile sketches instead. Report may be called
// repeatedly (e.g. mid-run for progress and again at the end) — the
// returned report is a true snapshot: summaries and sketches are
// copies, unaffected by events accumulated afterwards.
func (a *Accumulator) Report() *Report {
	rep := &Report{
		Tasks:    make(map[string]*TaskSummary, len(a.tasks)),
		sketches: make(map[string]*Sketch, len(a.tasks)),
	}
	for i := range a.tasks {
		t := &a.tasks[i]
		if !t.summarized {
			continue
		}
		c := t.sum
		if c.respN > 0 {
			c.MeanResponse = c.respSum / vtime.Duration(c.respN)
		}
		rep.Tasks[c.Task] = &c
		if t.sketch != nil {
			rep.sketches[c.Task] = t.sketch.Clone()
		}
	}
	return rep
}
