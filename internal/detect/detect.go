// Package detect implements the paper's fault detection and treatment
// mechanisms (Sections 3 and 4). A detector is a periodic timer per
// task — period equal to the task period, offset equal to the task's
// worst-case response time — that checks whether the current job has
// finished; an unfinished job at its WCRT has necessarily overrun its
// cost. Treatments decide what to do with the faulty task: nothing,
// stop it at once, stop it after an equitable allowance, or grant it
// the whole system allowance (redistributing any leftover to later
// faulty tasks).
package detect

import (
	"fmt"

	"repro/internal/allowance"
	"repro/internal/analysis"
	"repro/internal/engine"
	"repro/internal/taskset"
	"repro/internal/trace"
	"repro/internal/vtime"
)

// Treatment selects the paper's §4 fault response.
type Treatment int

// Treatments, in the order of the paper's §6 comparison.
const (
	// NoDetection disables detectors entirely (Figure 3).
	NoDetection Treatment = iota
	// DetectOnly installs detectors but treats nothing (Figure 4).
	DetectOnly
	// Stop stops faulty tasks at their WCRT (Figure 5, §4.1).
	Stop
	// Equitable stops faulty tasks after the equitable allowance
	// (Figure 6, §4.2): detectors fire at the Table 3 shifted WCRTs.
	Equitable
	// SystemAllowance grants the whole system slack to the first
	// faulty task, leftover to later ones (Figure 7, §4.3).
	SystemAllowance
)

// String names the treatment as in the paper's section titles.
func (t Treatment) String() string {
	switch t {
	case NoDetection:
		return "no-detection"
	case DetectOnly:
		return "detect-only"
	case Stop:
		return "stop"
	case Equitable:
		return "equitable-allowance"
	case SystemAllowance:
		return "system-allowance"
	default:
		return fmt.Sprintf("treatment(%d)", int(t))
	}
}

// ParseTreatment maps a treatment name to its constant. It accepts
// the short command-line vocabulary (none, detect, stop, equitable,
// system) and the paper's long forms (no-detection, detect-only,
// stop-equitable, equitable-allowance, system-allowance); the empty
// string means NoDetection. It is the single mapping behind
// sim.ParseTreatment and the verify oracle's scenario bridge.
func ParseTreatment(name string) (Treatment, error) {
	switch name {
	case "", "none", "no-detection":
		return NoDetection, nil
	case "detect", "detect-only":
		return DetectOnly, nil
	case "stop":
		return Stop, nil
	case "equitable", "stop-equitable", "equitable-allowance":
		return Equitable, nil
	case "system", "system-allowance":
		return SystemAllowance, nil
	}
	return 0, fmt.Errorf("detect: unknown treatment %q (want none|detect|stop|equitable|system)", name)
}

// Config parameterizes a Supervisor.
type Config struct {
	// Treatment is the fault response policy.
	Treatment Treatment
	// TimerResolution quantizes detector releases upward, modelling
	// jRate's PeriodicTimer whose releases are only accurate at
	// multiples of 10 ms (paper §6.2). Zero means exact timers.
	TimerResolution vtime.Duration
}

// DefaultTimerResolution reproduces jRate's 10 ms PeriodicTimer.
const DefaultTimerResolution = 10 * vtime.Millisecond

// taskPlan is the per-task detection parameterization derived from
// admission control. Each task's detector timer holds its plan, so
// re-admission (rebuildPlans, which updates plans in place) and
// removal reach the timer without a lookup.
type taskPlan struct {
	task taskset.Task
	// wcrt is the nominal worst-case response time.
	wcrt vtime.Duration
	// detectOffset is the (quantized) offset of the detector within
	// each period.
	detectOffset vtime.Duration
	// maxOverrun is the §4.3 single-task bound.
	maxOverrun vtime.Duration
	// removed ends the task's detector chain (RemoveTask).
	removed bool
}

// Supervisor owns the detectors and treatments for one run. Build it
// with NewSupervisor (which performs the paper's admission control and
// allowance analysis), then Attach it to an engine before Run.
type Supervisor struct {
	cfg   Config
	adm   *analysis.Report
	table *allowance.Table
	plans map[string]*taskPlan
	set   *taskset.Set

	// detections counts FaultDetected events.
	detections int64
}

// NewSupervisor runs admission control on the set and derives every
// detector offset and allowance. It fails if the system is not
// theoretically feasible — the paper's premise is a system accepted by
// admission control that faults at runtime anyway.
func NewSupervisor(s *taskset.Set, cfg Config) (*Supervisor, error) {
	rep, tab, err := admit(s, "the system")
	if err != nil {
		return nil, err
	}
	sup := &Supervisor{
		cfg:   cfg,
		adm:   rep,
		table: tab,
		plans: make(map[string]*taskPlan, s.Len()),
		set:   s.Clone(),
	}
	sup.rebuildPlans()
	return sup, nil
}

// admit is the admission step every change to the supervised set goes
// through: the exact Figure 2 test, rejection naming the deadline
// misses, then the allowance table the detectors are armed from.
func admit(set *taskset.Set, subject string) (*analysis.Report, *allowance.Table, error) {
	rep, err := analysis.Feasible(set)
	if err != nil {
		return nil, nil, err
	}
	if !rep.Feasible {
		return nil, nil, &rejection{subject: subject, misses: rep.Misses}
	}
	tab, err := allowance.Compute(set, 0)
	if err != nil {
		return nil, nil, err
	}
	return rep, tab, nil
}

// rejection is admission control's refusal: the exact test found
// tasks whose WCRT exceeds the deadline. Callers reporting it under
// their own name read the misses through the Misses method.
type rejection struct {
	subject string
	misses  []string
}

func (r *rejection) Error() string {
	return fmt.Sprintf("detect: admission control rejects %s (misses: %v)", r.subject, r.misses)
}

// Misses names the tasks whose WCRT exceeds the deadline.
func (r *rejection) Misses() []string { return r.misses }

// Admission returns the feasibility report of the supervised set as
// last admitted.
func (s *Supervisor) Admission() *analysis.Report { return s.adm }

// Table exposes the allowance analysis backing the detectors.
func (s *Supervisor) Table() *allowance.Table { return s.table }

// Detections returns the number of faults detected so far.
func (s *Supervisor) Detections() int64 { return s.detections }

// DetectorOffset returns the quantized detector offset of a task, as
// observable in the paper's Figure 4 (30/60/90 for WCRTs 29/58/87).
func (s *Supervisor) DetectorOffset(task string) (vtime.Duration, bool) {
	p, ok := s.plans[task]
	if !ok {
		return 0, false
	}
	return p.detectOffset, true
}

// Attach installs the detectors on the engine. With NoDetection it
// installs nothing. Call exactly once, before engine.Run. Detectors
// arm in task-set order, so simultaneous fires (and the stop-jitter
// draws they trigger) happen in the same order on every run.
func (s *Supervisor) Attach(e *engine.Engine) {
	if s.cfg.Treatment == NoDetection {
		return
	}
	for _, t := range s.set.Tasks {
		s.scheduleDetector(e, s.plans[t.Name])
	}
}

// scheduleDetector arms the task's detector from its first job. The
// detector is periodic (one real-time timer per task, §3: "This
// periodic approach enables us to avoid the creation of an instance
// of a detector for each job"); we model it as a self-rescheduling
// timer, which also supports dynamic task addition (§7). The timer
// state and its callback are allocated once per task and reused at
// every re-arm, so a steady-state detector fire costs no allocation.
func (s *Supervisor) scheduleDetector(e *engine.Engine, p *taskPlan) {
	dt := &detectorTimer{s: s, e: e, p: p, tid: e.TaskID(p.task.Name)}
	dt.fn = func(now vtime.Time) {
		dt.s.fire(dt, now)
		dt.q++
		dt.arm()
	}
	dt.arm()
}

// detectorTimer is one task's periodic detector: a self-rescheduling
// timer whose single closure survives across fires. It holds the
// task's plan and caches the engine's task handle, so neither arming
// nor a fire looks the task up by name.
type detectorTimer struct {
	s   *Supervisor
	e   *engine.Engine
	p   *taskPlan
	tid int
	q   int64
	fn  func(now vtime.Time)
}

// arm schedules the check of job q; a removed task lets the chain end.
func (dt *detectorTimer) arm() {
	p := dt.p
	if p.removed {
		return
	}
	at := vtime.Time(p.task.Offset).
		Add(vtime.Duration(dt.q) * p.task.Period).
		Add(p.detectOffset)
	dt.e.ScheduleDetector(at, dt.fn)
}

// fire is the detector body: check the job counter and finished flag
// kept up to date by waitForNextPeriod (§3.1) and start a treatment
// when the job is late.
func (s *Supervisor) fire(dt *detectorTimer, now vtime.Time) {
	e, p, tid, q := dt.e, dt.p, dt.tid, dt.q
	if p.removed {
		return // task removed since the timer was armed
	}
	name := p.task.Name
	e.Record(trace.Event{At: now, Kind: trace.DetectorRelease, Task: name, Job: q})
	j, exists := e.JobAtID(tid, q)
	if !exists || j.Done() {
		return // finished in time (or dropped)
	}
	s.detections++
	e.Record(trace.Event{At: now, Kind: trace.FaultDetected, Task: name, Job: q})
	switch s.cfg.Treatment {
	case DetectOnly:
		// Observation only (Figure 4).
	case Stop, Equitable:
		// The detector offset already encodes the allowance for the
		// equitable treatment; in both cases the task is stopped as
		// soon as the (possibly shifted) WCRT passes.
		e.StopJob(name, q, now)
	case SystemAllowance:
		// §4.3 and Figure 7: the faulty task is stopped after a WCRT
		// overrun equal to the maximum free time in the system, i.e.
		// at release + WCRT_i + MaxOverrun_i. The paper's leftover
		// redistribution ("if the first faulty task finishes before
		// having consumed all its allowance, the remainder is
		// allocated to the other faulty tasks" and conversely each
		// task's allowance subtracts "the more priority tasks
		// overrun") is emergent in the time domain: an earlier faulty
		// task that consumed X ms pushes this task's start right by
		// X, so within the fixed window [release+WCRT_i,
		// release+WCRT_i+MaxOverrun_i] exactly MaxOverrun_i − X of
		// own overrun remains. Figure 7 exhibits this: τ1 is stopped
		// at +33, τ2 and τ3 then complete exactly at their shifted
		// bounds 1091 and 1120 with zero residual allowance.
		grant := p.maxOverrun
		e.Record(trace.Event{At: now, Kind: trace.AllowanceGrant, Task: name, Job: q, Arg: int64(grant)})
		stopAt := j.Release.Add(p.wcrt).Add(grant)
		if stopAt < now {
			stopAt = now
		}
		e.Schedule(stopAt, func(at vtime.Time) {
			if jj, ok := e.JobAtID(tid, q); ok && !jj.Done() {
				e.StopJob(name, q, at)
			}
		})
	}
}

// AdmitTask implements dynamic admission (paper §7): it re-runs
// feasibility on the current set plus the candidate; on success it
// recomputes every allowance and detector offset (existing detectors
// pick the new offsets up at their next arming) and adds the task to
// the engine.
func (s *Supervisor) AdmitTask(e *engine.Engine, t taskset.Task) error {
	cand := s.set.Clone()
	cand.Tasks = append(cand.Tasks, t)
	rep, tab, err := admit(cand, "task "+t.Name)
	if err != nil {
		return err
	}
	now := e.Now()
	if err := e.AddTask(t, nil, now); err != nil {
		return err
	}
	// The engine interprets the offset relative to now; record the
	// absolute first release so detector arming matches (offsets do
	// not affect the critical-instant feasibility analysis above).
	cand.Tasks[len(cand.Tasks)-1].Offset += vtime.Duration(now)
	s.set, s.adm, s.table = cand, rep, tab
	s.rebuildPlans()
	if s.cfg.Treatment != NoDetection {
		s.scheduleDetector(e, s.plans[t.Name])
	}
	return nil
}

// RemoveTask removes a task from the system and the supervision plan;
// the freed capacity enlarges every allowance (recomputed here).
func (s *Supervisor) RemoveTask(e *engine.Engine, name string) error {
	idx := s.set.IndexByName(name)
	if idx < 0 {
		return fmt.Errorf("detect: unknown task %q", name)
	}
	e.RemoveTask(name, e.Now())
	s.set.Tasks = append(s.set.Tasks[:idx], s.set.Tasks[idx+1:]...)
	s.plans[name].removed = true
	delete(s.plans, name)
	rep, tab, err := admit(s.set, "the system")
	if err != nil {
		return err
	}
	s.adm, s.table = rep, tab
	s.rebuildPlans()
	return nil
}

// rebuildPlans refreshes detector offsets and allowances from the
// current table, preserving unknown tasks untouched.
func (s *Supervisor) rebuildPlans() {
	for i, t := range s.set.Tasks {
		off := s.table.WCRT[i]
		if s.cfg.Treatment == Equitable {
			// §4.2: tasks are stopped after the new worst case
			// response times which take the allowance into account.
			off = s.table.EquitableWCRT[i]
		}
		p, ok := s.plans[t.Name]
		if !ok {
			p = &taskPlan{}
			s.plans[t.Name] = p
		}
		p.task = t
		p.wcrt = s.table.WCRT[i]
		p.detectOffset = off.Ceil(s.cfg.TimerResolution)
		p.maxOverrun = s.table.MaxOverrun[i]
	}
}
