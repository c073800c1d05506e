package detect

import (
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/taskset"
	"repro/internal/trace"
	"repro/internal/vtime"
)

func ms(v int64) vtime.Duration { return vtime.Millis(v) }
func at(v int64) vtime.Time     { return vtime.AtMillis(v) }

func figureSet() *taskset.Set {
	return taskset.MustNew(
		taskset.Task{Name: "tau1", Priority: 20, Period: ms(200), Deadline: ms(70), Cost: ms(29)},
		taskset.Task{Name: "tau2", Priority: 18, Period: ms(250), Deadline: ms(120), Cost: ms(29)},
		taskset.Task{Name: "tau3", Priority: 16, Period: ms(1500), Deadline: ms(120), Cost: ms(29), Offset: ms(1000)},
	)
}

// runFigure builds supervisor+engine for the paper's §6 scenario with
// the given treatment and returns both after the run.
func runFigure(t *testing.T, tr Treatment) (*engine.Engine, *Supervisor, *trace.Log) {
	t.Helper()
	sup, err := NewSupervisor(figureSet(), Config{Treatment: tr, TimerResolution: DefaultTimerResolution})
	if err != nil {
		t.Fatal(err)
	}
	e, err := engine.New(engine.Config{
		Tasks:  figureSet(),
		Faults: fault.Plan{"tau1": fault.OverrunAt{Job: 5, Extra: ms(40)}},
		End:    at(1500),
	})
	if err != nil {
		t.Fatal(err)
	}
	sup.Attach(e)
	return e, sup, e.Run()
}

func TestSupervisorRejectsInfeasibleSystem(t *testing.T) {
	s := taskset.MustNew(
		taskset.Task{Name: "a", Priority: 2, Period: ms(10), Deadline: ms(5), Cost: ms(5)},
		taskset.Task{Name: "b", Priority: 1, Period: ms(10), Deadline: ms(6), Cost: ms(5)},
	)
	_, err := NewSupervisor(s, Config{Treatment: Stop})
	if err == nil {
		t.Fatal("supervisor must reject a system that fails admission control")
	}
	if want := "detect: admission control rejects the system (misses: [b])"; err.Error() != want {
		t.Errorf("rejection = %q, want %q", err, want)
	}
}

// TestDetectorOffsetsQuantized reproduces the paper's §6.2 numbers:
// with jRate's 10 ms PeriodicTimer the detectors of WCRTs 29/58/87 ms
// release at 30/60/90 ms (delays 1/2/3 ms).
func TestDetectorOffsetsQuantized(t *testing.T) {
	sup, err := NewSupervisor(figureSet(), Config{Treatment: Stop, TimerResolution: DefaultTimerResolution})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]vtime.Duration{"tau1": ms(30), "tau2": ms(60), "tau3": ms(90)}
	for task, w := range want {
		got, ok := sup.DetectorOffset(task)
		if !ok || got != w {
			t.Errorf("detector offset of %s = %v, want %v", task, got, w)
		}
	}
	if _, ok := sup.DetectorOffset("nope"); ok {
		t.Error("unknown task must have no detector offset")
	}
}

// TestEquitableDetectorOffsets: under the equitable treatment the
// detectors move to the Table 3 shifted WCRTs (40/80/120), which are
// multiples of 10 already.
func TestEquitableDetectorOffsets(t *testing.T) {
	sup, err := NewSupervisor(figureSet(), Config{Treatment: Equitable, TimerResolution: DefaultTimerResolution})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]vtime.Duration{"tau1": ms(40), "tau2": ms(80), "tau3": ms(120)}
	for task, w := range want {
		if got, _ := sup.DetectorOffset(task); got != w {
			t.Errorf("equitable detector offset of %s = %v, want %v", task, got, w)
		}
	}
}

// TestFigure4DetectOnly: detection without treatment does not alter
// the execution (same completions as Figure 3) but records detector
// releases and the faults.
func TestFigure4DetectOnly(t *testing.T) {
	e, sup, log := runFigure(t, DetectOnly)
	j1, _ := e.JobAt("tau1", 5)
	j3, _ := e.JobAt("tau3", 0)
	if j1.FinishedAt != at(1069) || j3.FinishedAt != at(1127) || !j3.Missed() {
		t.Errorf("detect-only must not change the schedule: tau1 %v, tau3 %v missed=%v",
			j1.FinishedAt, j3.FinishedAt, j3.Missed())
	}
	if sup.Detections() == 0 {
		t.Fatal("the overrun must be detected")
	}
	// τ1's detector for job 5 releases at 1000+30 = 1030 and flags it.
	var sawFault bool
	for _, ev := range log.Events() {
		if ev.Kind == trace.FaultDetected && ev.Task == "tau1" && ev.Job == 5 {
			if ev.At != at(1030) {
				t.Errorf("tau1 fault detected at %v, want 1030ms", ev.At)
			}
			sawFault = true
		}
	}
	if !sawFault {
		t.Fatal("no FaultDetected event for tau1#5")
	}
}

// TestFigure5Stop: "the only task to miss its deadline is task τ1";
// τ1 is stopped at its (quantized) WCRT and the processor is free
// before the expiries of τ2 and τ3.
func TestFigure5Stop(t *testing.T) {
	e, _, _ := runFigure(t, Stop)
	j1, _ := e.JobAt("tau1", 5)
	j2, _ := e.JobAt("tau2", 4)
	j3, _ := e.JobAt("tau3", 0)
	if !j1.Stopped() || j1.FinishedAt != at(1030) {
		t.Errorf("tau1#5 stopped=%v at %v, want stopped at 1030ms", j1.Stopped(), j1.FinishedAt)
	}
	if j2.Missed() || j2.FinishedAt != at(1059) {
		t.Errorf("tau2#4 at %v missed=%v, want 1059ms met", j2.FinishedAt, j2.Missed())
	}
	if j3.Missed() || j3.FinishedAt != at(1088) {
		t.Errorf("tau3#0 at %v missed=%v, want 1088ms met", j3.FinishedAt, j3.Missed())
	}
}

// TestFigure6Equitable: τ1 is stopped after its allowance-shifted
// WCRT (release + 40 ms), later than under Stop; τ2 and τ3 meet
// their deadlines with CPU time left unused.
func TestFigure6Equitable(t *testing.T) {
	e, _, _ := runFigure(t, Equitable)
	j1, _ := e.JobAt("tau1", 5)
	j2, _ := e.JobAt("tau2", 4)
	j3, _ := e.JobAt("tau3", 0)
	if !j1.Stopped() || j1.FinishedAt != at(1040) {
		t.Errorf("tau1#5 stopped=%v at %v, want stopped at 1040ms (WCRT+11 quantized)", j1.Stopped(), j1.FinishedAt)
	}
	if j2.Missed() || j2.FinishedAt != at(1069) {
		t.Errorf("tau2#4 at %v missed=%v, want 1069ms met", j2.FinishedAt, j2.Missed())
	}
	if j3.Missed() || j3.FinishedAt != at(1098) {
		t.Errorf("tau3#0 at %v missed=%v, want 1098ms met", j3.FinishedAt, j3.Missed())
	}
}

// TestFigure7SystemAllowance: τ1 is stopped thirty-three milliseconds
// after its worst case response time (1062 ms); τ2 and τ3 finish just
// before their deadlines (1091 and exactly 1120).
func TestFigure7SystemAllowance(t *testing.T) {
	e, _, log := runFigure(t, SystemAllowance)
	j1, _ := e.JobAt("tau1", 5)
	j2, _ := e.JobAt("tau2", 4)
	j3, _ := e.JobAt("tau3", 0)
	if !j1.Stopped() || j1.FinishedAt != at(1062) {
		t.Errorf("tau1#5 stopped=%v at %v, want stopped at 1062ms (WCRT+33)", j1.Stopped(), j1.FinishedAt)
	}
	if j2.Missed() || j2.Stopped() || j2.FinishedAt != at(1091) {
		t.Errorf("tau2#4 at %v missed=%v stopped=%v, want completed 1091ms", j2.FinishedAt, j2.Missed(), j2.Stopped())
	}
	if j3.Missed() || j3.Stopped() || j3.FinishedAt != at(1120) {
		t.Errorf("tau3#0 at %v missed=%v stopped=%v, want completed exactly at its 1120ms deadline", j3.FinishedAt, j3.Missed(), j3.Stopped())
	}
	// An allowance grant of 33 ms is recorded for τ1.
	var sawGrant bool
	for _, ev := range log.Events() {
		if ev.Kind == trace.AllowanceGrant && ev.Task == "tau1" && ev.Job == 5 {
			if vtime.Duration(ev.Arg) != ms(33) {
				t.Errorf("grant = %v, want 33ms", vtime.Duration(ev.Arg))
			}
			sawGrant = true
		}
	}
	if !sawGrant {
		t.Error("no AllowanceGrant recorded for tau1#5")
	}
}

// TestNoDetectionInstallsNothing: with NoDetection the trace contains
// no detector events at all (Figure 3).
func TestNoDetectionInstallsNothing(t *testing.T) {
	_, sup, log := runFigure(t, NoDetection)
	if sup.Detections() != 0 {
		t.Error("no detections expected")
	}
	n := len(log.Filter(func(ev trace.Event) bool {
		return ev.Kind == trace.DetectorRelease || ev.Kind == trace.FaultDetected
	}))
	if n != 0 {
		t.Errorf("%d detector events recorded under NoDetection", n)
	}
}

// TestFaultFreeRunNoDetections: detectors stay silent when every job
// meets its WCRT.
func TestFaultFreeRunNoDetections(t *testing.T) {
	sup, err := NewSupervisor(figureSet(), Config{Treatment: Stop, TimerResolution: DefaultTimerResolution})
	if err != nil {
		t.Fatal(err)
	}
	e, err := engine.New(engine.Config{Tasks: figureSet(), End: at(3000)})
	if err != nil {
		t.Fatal(err)
	}
	sup.Attach(e)
	e.Run()
	if sup.Detections() != 0 {
		t.Fatalf("fault-free run produced %d detections", sup.Detections())
	}
}

// TestExactTimersNoFalsePositive: with exact (unquantized) timers a
// job finishing exactly at its WCRT is not flagged — completions are
// observed before detector checks at the same instant.
func TestExactTimersNoFalsePositive(t *testing.T) {
	// Single task, cost = WCRT: every job finishes exactly at the
	// detector's release instant.
	s := taskset.MustNew(
		taskset.Task{Name: "solo", Priority: 1, Period: ms(10), Deadline: ms(10), Cost: ms(5)},
	)
	sup, err := NewSupervisor(s, Config{Treatment: Stop, TimerResolution: 0})
	if err != nil {
		t.Fatal(err)
	}
	if off, _ := sup.DetectorOffset("solo"); off != ms(5) {
		t.Fatalf("exact detector offset = %v, want 5ms", off)
	}
	e, err := engine.New(engine.Config{Tasks: s, End: at(100)})
	if err != nil {
		t.Fatal(err)
	}
	sup.Attach(e)
	e.Run()
	if sup.Detections() != 0 {
		t.Fatalf("job finishing exactly at WCRT flagged %d times", sup.Detections())
	}
}

// TestRecurringFaultsStopEveryOccurrence: an every-other-job overrun
// under Stop is contained every time; lower tasks never fail.
func TestRecurringFaultsStopEveryOccurrence(t *testing.T) {
	sup, err := NewSupervisor(figureSet(), Config{Treatment: Stop, TimerResolution: DefaultTimerResolution})
	if err != nil {
		t.Fatal(err)
	}
	e, err := engine.New(engine.Config{
		Tasks:  figureSet(),
		Faults: fault.Plan{"tau1": fault.OverrunEvery{First: 1, K: 2, Extra: ms(50)}},
		End:    at(3000),
	})
	if err != nil {
		t.Fatal(err)
	}
	sup.Attach(e)
	e.Run()
	if sup.Detections() < 5 {
		t.Fatalf("expected at least 5 detections, got %d", sup.Detections())
	}
	for _, name := range []string{"tau2", "tau3"} {
		for _, j := range e.Jobs(name) {
			if j.Done() && j.Missed() {
				t.Errorf("%s#%d failed despite the stop treatment", name, j.Q)
			}
		}
	}
}

// TestDynamicAdmission (paper §7): a task added at runtime passes
// admission control, gets a detector, and is protected like the rest;
// an inadmissible task is rejected.
func TestDynamicAdmission(t *testing.T) {
	base := taskset.MustNew(
		taskset.Task{Name: "a", Priority: 10, Period: ms(100), Deadline: ms(100), Cost: ms(20)},
	)
	sup, err := NewSupervisor(base, Config{Treatment: Stop, TimerResolution: ms(10)})
	if err != nil {
		t.Fatal(err)
	}
	e, err := engine.New(engine.Config{
		Tasks:  base,
		Faults: fault.Plan{"b": fault.OverrunEvery{First: 0, K: 1, Extra: ms(100)}},
		End:    at(2000),
	})
	if err != nil {
		t.Fatal(err)
	}
	sup.Attach(e)
	e.Schedule(at(250), func(now vtime.Time) {
		// Admissible: C=30, T=200 at priority 5 → WCRT = 30+20 = 50.
		if err := sup.AdmitTask(e, taskset.Task{Name: "b", Priority: 5, Period: ms(200), Deadline: ms(200), Cost: ms(30)}); err != nil {
			t.Errorf("AdmitTask(b): %v", err)
		}
		// Inadmissible: would need 150ms every 100ms alongside a.
		err := sup.AdmitTask(e, taskset.Task{Name: "c", Priority: 4, Period: ms(100), Deadline: ms(100), Cost: ms(90)})
		if want := "detect: admission control rejects task c"; err == nil || !strings.HasPrefix(err.Error(), want) {
			t.Errorf("AdmitTask(c) = %v, want rejection %q", err, want)
		}
		// The report and the table are those of the admitted {a, b}.
		if wcrt := sup.Admission().WCRT; len(wcrt) != 2 || wcrt[1] != ms(50) {
			t.Errorf("admission WCRTs after AdmitTask(b) = %v, want [20ms 50ms]", wcrt)
		}
		if n := len(sup.Table().WCRT); n != 2 {
			t.Errorf("allowance table covers %d tasks, want 2", n)
		}
	})
	e.Run()
	// Every faulty job of b must have been stopped; a never fails.
	var stopped int
	for _, j := range e.Jobs("b") {
		if j.Stopped() {
			stopped++
		}
	}
	if stopped == 0 {
		t.Fatal("dynamically added faulty task was never stopped by its detector")
	}
	for _, j := range e.Jobs("a") {
		if j.Done() && j.Missed() {
			t.Errorf("a#%d failed despite detectors", j.Q)
		}
	}
}

// TestRemoveTaskFreesAllowance: removing a task recomputes a larger
// (or equal) equitable allowance and ends its detector chain. tau3 is
// removed at 1100 ms, after its job 0 (released at 1000) was checked
// at 1090; the check already armed for job 1 must not fire.
func TestRemoveTaskFreesAllowance(t *testing.T) {
	sup, err := NewSupervisor(figureSet(), Config{Treatment: Stop, TimerResolution: ms(10)})
	if err != nil {
		t.Fatal(err)
	}
	before := sup.Table().Equitable
	if rep := sup.Admission(); !rep.Feasible || len(rep.WCRT) != 3 {
		t.Fatalf("admission report before removal: %+v", rep)
	}
	e, err := engine.New(engine.Config{Tasks: figureSet(), End: at(5000)})
	if err != nil {
		t.Fatal(err)
	}
	sup.Attach(e)
	e.Schedule(at(1100), func(now vtime.Time) {
		if err := sup.RemoveTask(e, "tau3"); err != nil {
			t.Errorf("RemoveTask: %v", err)
		}
		if err := sup.RemoveTask(e, "ghost"); err == nil {
			t.Error("removing an unknown task must fail")
		}
	})
	log := e.Run()
	released := int64(len(e.Jobs("tau3")))
	if released != 1 {
		t.Fatalf("tau3 released %d jobs before its removal, want 1", released)
	}
	checks := log.Filter(func(ev trace.Event) bool {
		return ev.Kind == trace.DetectorRelease && ev.Task == "tau3"
	})
	if len(checks) != 1 {
		t.Errorf("tau3 detector released %d times, want once (job 0)", len(checks))
	}
	for _, ev := range checks {
		if ev.Job >= released {
			t.Errorf("detector checked tau3#%d at %v after the task was removed", ev.Job, ev.At)
		}
	}
	after := sup.Table().Equitable
	if n := len(sup.Admission().WCRT); n != 2 {
		t.Errorf("admission report covers %d tasks after removing tau3, want 2", n)
	}
	if after < before {
		t.Errorf("allowance shrank after removing a task: %v -> %v", before, after)
	}
	if after <= before {
		// With τ3 (the binding constraint, D=120 at lowest priority)
		// gone, the allowance must strictly grow: R2 = 58+2A ≤ 120.
		t.Errorf("removing the binding task must grow the allowance: %v -> %v", before, after)
	}
}

// TestEquitableReArmAfterAdmission: under the equitable treatment,
// admitting tau3 into {tau1, tau2} at 250 ms shrinks the equitable
// allowance, and tau1's detector picks the new shifted WCRT up at its
// next arming. The check for tau1#1 was armed before the admission
// and keeps the old offset; tau1#2's check lands at 400 ms plus the
// new EquitableWCRT, quantized to the timer resolution.
func TestEquitableReArmAfterAdmission(t *testing.T) {
	base := taskset.MustNew(figureSet().Tasks[:2]...)
	res := DefaultTimerResolution
	sup, err := NewSupervisor(base, Config{Treatment: Equitable, TimerResolution: res})
	if err != nil {
		t.Fatal(err)
	}
	oldOff := sup.Table().EquitableWCRT[0].Ceil(res)
	e, err := engine.New(engine.Config{Tasks: base, End: at(1000)})
	if err != nil {
		t.Fatal(err)
	}
	sup.Attach(e)
	e.Schedule(at(250), func(now vtime.Time) {
		if err := sup.AdmitTask(e, figureSet().Tasks[2]); err != nil {
			t.Errorf("AdmitTask(tau3): %v", err)
		}
	})
	log := e.Run()
	newOff := sup.Table().EquitableWCRT[0].Ceil(res)
	if newOff >= oldOff {
		t.Fatalf("admitting tau3 must shrink tau1's shifted WCRT: %v -> %v", oldOff, newOff)
	}
	if off, _ := sup.DetectorOffset("tau1"); off != newOff {
		t.Errorf("tau1 detector offset = %v, want %v", off, newOff)
	}
	fired := map[int64]vtime.Time{}
	for _, ev := range log.Filter(func(ev trace.Event) bool {
		return ev.Kind == trace.DetectorRelease && ev.Task == "tau1"
	}) {
		fired[ev.Job] = ev.At
	}
	for q, want := range map[int64]vtime.Time{
		1: at(200).Add(oldOff),
		2: at(400).Add(newOff),
	} {
		if got, ok := fired[q]; !ok || got != want {
			t.Errorf("tau1#%d detector released at %v (recorded %v), want %v", q, got, ok, want)
		}
	}
}

func TestTreatmentStrings(t *testing.T) {
	want := map[Treatment]string{
		NoDetection:     "no-detection",
		DetectOnly:      "detect-only",
		Stop:            "stop",
		Equitable:       "equitable-allowance",
		SystemAllowance: "system-allowance",
	}
	for tr, w := range want {
		if tr.String() != w {
			t.Errorf("%d.String() = %q, want %q", int(tr), tr.String(), w)
		}
	}
}
