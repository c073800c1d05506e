package sim

import (
	"context"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/verify/gen"
	"repro/internal/vtime"
)

func scenarioPath(name string) string {
	return filepath.Join("..", "testdata", "scenarios", name)
}

// TestRegistryMatchesDirectCalls is the redesign's equivalence
// guarantee: running each experiment through the registry produces
// output byte-identical to the pre-redesign internal/experiments
// entry points.
func TestRegistryMatchesDirectCalls(t *testing.T) {
	ctx := context.Background()
	opt := experiments.RunOptions{}
	direct := map[string]func() (string, error){
		"x1": func() (string, error) {
			points, err := experiments.DetectorOverheadSweepCtx(ctx, []int{2, 4, 8, 16}, 7, opt)
			if err != nil {
				return "", err
			}
			return experiments.RenderOverhead(points), nil
		},
		"x2": func() (string, error) {
			points, err := experiments.FaultMagnitudeSweepCtx(ctx, vtime.Millis(60), vtime.Millis(5), opt)
			if err != nil {
				return "", err
			}
			return experiments.RenderSweep(points), nil
		},
		"x3": func() (string, error) {
			points, err := experiments.TimerResolutionSweepCtx(ctx, opt)
			if err != nil {
				return "", err
			}
			return experiments.RenderResolution(points), nil
		},
		"x4": func() (string, error) {
			points, err := experiments.BaselineComparisonCtx(ctx, vtime.Millis(50), 6*vtime.Second, opt)
			if err != nil {
				return "", err
			}
			return experiments.RenderBaselines(points), nil
		},
		"x5": func() (string, error) {
			points, err := experiments.AcceptanceSweepCtx(ctx,
				[]float64{0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}, 200, 5, 11, opt)
			if err != nil {
				return "", err
			}
			return experiments.RenderAcceptance(points), nil
		},
	}
	for name, fn := range direct {
		name, fn := name, fn
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			want, err := fn()
			if err != nil {
				t.Fatal(err)
			}
			e, ok := LookupExperiment(name)
			if !ok {
				t.Fatalf("experiment %q not registered", name)
			}
			res, err := e.Run(ctx, RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if res.Text != want {
				t.Errorf("registry output differs from direct call:\n--- registry ---\n%s\n--- direct ---\n%s", res.Text, want)
			}
			if res.Data == nil {
				t.Error("registry result has no structured data")
			}
		})
	}
}

// TestRegistryCoversRtexpArtefacts pins the registry inventory and
// its order (the order cmd/rtexp prints).
func TestRegistryCoversRtexpArtefacts(t *testing.T) {
	want := []string{"table1", "table2", "table3", "fig3", "fig4", "fig5", "fig6", "fig7",
		"x1", "x2", "x3", "x9", "x5", "x4", "x10", "x11", "x12", "x13", "x14", "x15"}
	got := Experiments()
	if len(got) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(got), len(want))
	}
	for i, e := range got {
		if e.Name() != want[i] {
			t.Errorf("experiment %d = %q, want %q", i, e.Name(), want[i])
		}
		if e.Description() == "" {
			t.Errorf("experiment %q has no description", e.Name())
		}
	}
}

// TestScenarioFigure5MatchesRunFigure: the declarative figure5
// scenario produces the very trace of the hard-coded experiment.
func TestScenarioFigure5MatchesRunFigure(t *testing.T) {
	sys, err := Load(scenarioPath("figure5.json"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	want, err := experiments.RunFigure(experiments.Figure5)
	if err != nil {
		t.Fatal(err)
	}
	if g, w := got.Log.EncodeString(), want.Log.EncodeString(); g != w {
		t.Errorf("scenario trace differs from RunFigure(Figure5):\n--- scenario ---\n%s\n--- direct ---\n%s", g, w)
	}
	if got.Detections != want.Detections {
		t.Errorf("detections = %d, want %d", got.Detections, want.Detections)
	}
	if got.Admission == nil || !got.Admission.Feasible {
		t.Error("admission report missing or infeasible")
	}
}

// TestRefusedFastForwardLeavesSystemRunnable: figure5 runs the stop
// treatment, which fast-forward's eligibility table refuses. The
// refused SetFastForward(true) must leave the system as it was, so
// the next Run still succeeds with the same trace.
func TestRefusedFastForwardLeavesSystemRunnable(t *testing.T) {
	sys, err := Load(scenarioPath("figure5.json"))
	if err != nil {
		t.Fatal(err)
	}
	before, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.SetFastForward(true); err == nil {
		t.Fatal("SetFastForward(true) on a stop-treatment scenario must be refused")
	}
	after, err := sys.Run()
	if err != nil {
		t.Fatalf("Run after a refused SetFastForward: %v", err)
	}
	if after.Log.EncodeString() != before.Log.EncodeString() {
		t.Error("a refused SetFastForward changed the run's trace")
	}
}

// TestBuilderMatchesScenarioFile: the functional-options builder and
// the JSON spec compile to identical runs.
func TestBuilderMatchesScenarioFile(t *testing.T) {
	sys, err := New(
		WithName("figure5"),
		WithTasks(
			Task{Name: "tau1", Priority: 20, Period: Millis(200), Deadline: Millis(70), Cost: Millis(29)},
			Task{Name: "tau2", Priority: 18, Period: Millis(250), Deadline: Millis(120), Cost: Millis(29)},
			Task{Name: "tau3", Priority: 16, Period: Millis(1500), Deadline: Millis(120), Cost: Millis(29), Offset: Millis(1000)},
		),
		WithTreatment("stop"),
		WithFaults(Fault{Task: "tau1", Kind: FaultOverrunAt, Job: 5, Extra: Millis(40)}),
		WithHorizon(vtime.Millis(1500)),
		WithTimerResolution(vtime.Millis(10)),
	)
	if err != nil {
		t.Fatal(err)
	}
	built, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	fromFile, err := Load(scenarioPath("figure5.json"))
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := fromFile.Run()
	if err != nil {
		t.Fatal(err)
	}
	if g, w := built.Log.EncodeString(), loaded.Log.EncodeString(); g != w {
		t.Errorf("builder trace differs from scenario-file trace:\n--- builder ---\n%s\n--- file ---\n%s", g, w)
	}
}

func TestOverloadScenarioRuns(t *testing.T) {
	sys, err := Load(scenarioPath("edf-overload.json"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Admission != nil || res.Allowance != nil {
		t.Error("skip_admission run must not carry admission artifacts")
	}
	if r := res.SuccessRatio(); r <= 0 || r >= 1 {
		t.Errorf("overloaded EDF success ratio = %v, want strictly between 0 and 1", r)
	}
}

func TestAperiodicScenarioServesRequests(t *testing.T) {
	sys, err := Load(scenarioPath("aperiodic-server.json"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	served, ok := res.Served["server"]
	if !ok {
		t.Fatalf("no served results for the server task; Served = %v", res.Served)
	}
	if len(served) != 5 {
		t.Fatalf("served %d requests, want 5", len(served))
	}
	done := 0
	for _, s := range served {
		if s.Done {
			done++
		}
	}
	if done == 0 {
		t.Error("no aperiodic request completed within the horizon")
	}
	if failed := res.Report.Tasks["control"].Failed; failed != 0 {
		t.Errorf("periodic task failed %d jobs during the burst, want 0", failed)
	}
}

func TestSystemIsRerunnable(t *testing.T) {
	sys, err := Load(scenarioPath("jitter-stop.json"))
	if err != nil {
		t.Fatal(err)
	}
	first, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	second, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if f, s := first.Log.EncodeString(), second.Log.EncodeString(); f != s {
		t.Error("two runs of one System differ; runs must be deterministic")
	}
}

func TestNewValidates(t *testing.T) {
	if _, err := New(); err == nil {
		t.Error("empty scenario must be rejected")
	}
	if _, err := New(
		WithTasks(Task{Name: "a", Priority: 1, Period: Millis(10), Deadline: Millis(10), Cost: Millis(1)}),
		WithHorizon(vtime.Millis(100)),
		WithPolicy("no-such-policy"),
	); err == nil || !strings.Contains(err.Error(), "no-such-policy") {
		t.Errorf("unknown policy must be named in the error, got %v", err)
	}
	if _, err := New(
		WithTasks(Task{Name: "a", Priority: 1, Period: Millis(10), Deadline: Millis(10), Cost: Millis(1)}),
		WithHorizon(vtime.Millis(100)),
		WithTreatment("stop"),
		WithoutAdmission(),
	); err == nil {
		t.Error("skip_admission with a treatment must be rejected")
	}
}

func TestPoliciesRegistry(t *testing.T) {
	names := Policies()
	want := map[string]bool{"fixed-priority": false, "edf": false, "best-effort": false, "red": false, "d-over": false}
	for _, n := range names {
		if _, ok := want[n]; ok {
			want[n] = true
		}
	}
	for n, seen := range want {
		if !seen {
			t.Errorf("policy %q not registered (got %v)", n, names)
		}
	}
}

func TestParseTreatment(t *testing.T) {
	for _, in := range []string{"", "none", "detect", "stop", "equitable", "system",
		"no-detection", "detect-only", "stop-equitable", "equitable-allowance", "system-allowance"} {
		if _, err := ParseTreatment(in); err != nil {
			t.Errorf("ParseTreatment(%q): %v", in, err)
		}
	}
	if _, err := ParseTreatment("explode"); err == nil {
		t.Error("unknown treatment must error")
	}
}

// TestDetectorArmOrderDeterministic pins run-to-run determinism of
// simultaneous detector fires: this generated scenario's stop-jitter
// draws follow the detector order, which once came from map iteration
// and varied between runs of the same document.
func TestDetectorArmOrderDeterministic(t *testing.T) {
	sc := gen.Scenario(0xf88cd6fb53694ca3)
	var first string
	for i := 0; i < 50; i++ {
		sys, err := FromScenario(sc)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Run()
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = res.Summary()
		} else if got := res.Summary(); got != first {
			t.Fatalf("run %d renders a different report:\n%s\nvs the first run's\n%s", i, got, first)
		}
	}
}
