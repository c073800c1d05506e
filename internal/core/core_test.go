package core

import (
	"testing"

	"repro/internal/detect"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/taskset"
	"repro/internal/vtime"
)

func ms(v int64) vtime.Duration { return vtime.Millis(v) }

func figureSet() *taskset.Set {
	return taskset.MustNew(
		taskset.Task{Name: "tau1", Priority: 20, Period: ms(200), Deadline: ms(70), Cost: ms(29)},
		taskset.Task{Name: "tau2", Priority: 18, Period: ms(250), Deadline: ms(120), Cost: ms(29)},
		taskset.Task{Name: "tau3", Priority: 16, Period: ms(1500), Deadline: ms(120), Cost: ms(29), Offset: ms(1000)},
	)
}

func TestNewSystemValidation(t *testing.T) {
	if _, err := NewSystem(Config{Horizon: ms(10)}); err == nil {
		t.Error("nil tasks must fail")
	}
	if _, err := NewSystem(Config{Tasks: figureSet()}); err == nil {
		t.Error("zero horizon must fail")
	}
	bad := taskset.MustNew(
		taskset.Task{Name: "a", Priority: 2, Period: ms(10), Deadline: ms(5), Cost: ms(5)},
		taskset.Task{Name: "b", Priority: 1, Period: ms(10), Deadline: ms(6), Cost: ms(5)},
	)
	if _, err := NewSystem(Config{Tasks: bad, Horizon: ms(100)}); err == nil {
		t.Error("infeasible system must be rejected by admission control")
	}
}

func TestRunProducesFullResult(t *testing.T) {
	sys, err := NewSystem(Config{
		Tasks:           figureSet(),
		Treatment:       detect.SystemAllowance,
		Faults:          fault.Plan{"tau1": fault.OverrunAt{Job: 5, Extra: ms(40)}},
		Horizon:         ms(1500),
		TimerResolution: detect.DefaultTimerResolution,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sys.Admission() == nil || !sys.Admission().Feasible {
		t.Fatal("admission report missing")
	}
	if sys.Allowance().Equitable != ms(11) {
		t.Fatalf("allowance = %v, want 11ms", sys.Allowance().Equitable)
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Log.Len() == 0 || res.Report == nil || res.Allowance == nil {
		t.Fatal("result incomplete")
	}
	if res.Detections == 0 {
		t.Error("the injected fault must be detected")
	}
	if res.Switches == 0 {
		t.Error("switches must be counted")
	}
	j, ok := res.Report.Job("tau1", 5)
	if !ok || !j.Stopped || j.End != vtime.AtMillis(1062) {
		t.Errorf("tau1#5 = %+v, want stopped at 1062ms", j)
	}
}

func TestRunWithDynamicSetup(t *testing.T) {
	sys, err := NewSystem(Config{
		Tasks:     figureSet(),
		Treatment: detect.Stop,
		Horizon:   ms(3000),
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.RunWith(func(e *engine.Engine, sup *detect.Supervisor) {
		e.Schedule(vtime.AtMillis(500), func(now vtime.Time) {
			err := sup.AdmitTask(e, taskset.Task{
				Name: "late", Priority: 10, Period: ms(500), Deadline: ms(500), Cost: ms(20),
			})
			if err != nil {
				t.Errorf("AdmitTask: %v", err)
			}
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	s, ok := res.Report.Tasks["late"]
	if !ok || s.Released == 0 {
		t.Fatal("dynamically admitted task never ran")
	}
	if s.Failed != 0 {
		t.Errorf("late task failed %d jobs", s.Failed)
	}
}

func TestSupervisorAccessor(t *testing.T) {
	sys, err := NewSystem(Config{Tasks: figureSet(), Horizon: ms(100)})
	if err != nil {
		t.Fatal(err)
	}
	if sys.Supervisor() == nil {
		t.Fatal("supervisor must be exposed")
	}
}

// TestSkipAdmission: a run outside the admission model (SkipAdmission
// or CPUs > 1) goes through the same System without the admission,
// allowance and supervisor steps, so an infeasible set still runs —
// and a detector treatment, which needs those steps, is refused.
func TestSkipAdmission(t *testing.T) {
	bad := taskset.MustNew(
		taskset.Task{Name: "a", Priority: 2, Period: ms(10), Deadline: ms(5), Cost: ms(5)},
		taskset.Task{Name: "b", Priority: 1, Period: ms(10), Deadline: ms(6), Cost: ms(5)},
	)
	for _, cfg := range []Config{
		{Tasks: bad, Horizon: ms(100), SkipAdmission: true},
		{Tasks: bad, Horizon: ms(100), CPUs: 2},
	} {
		sys, err := NewSystem(cfg)
		if err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		if sys.Admission() != nil || sys.Allowance() != nil || sys.Supervisor() != nil {
			t.Errorf("%+v: admission artefacts on a run that skips admission", cfg)
		}
		res, err := sys.Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.Admission != nil || res.Allowance != nil || res.Report.Tasks["b"].Released == 0 {
			t.Errorf("%+v: result %+v", cfg, res)
		}
		cfg.Treatment = detect.Stop
		if _, err := NewSystem(cfg); err == nil {
			t.Errorf("%+v: a detector treatment without admission control was accepted", cfg)
		}
	}
}
