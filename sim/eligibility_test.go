package sim

import (
	"strings"
	"testing"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/trace"
	"repro/internal/verify"
	"repro/internal/vtime"
)

// eligibleScenario is a fast-forward- and checkpoint-eligible base:
// streaming, treatment none, no faults, servers, arrivals, jitter or
// oracle.
func eligibleScenario() Scenario {
	return Scenario{
		Name: "eligible",
		Tasks: []Task{
			{Name: "tau1", Priority: 2, Period: Millis(10), Deadline: Millis(10), Cost: Millis(2)},
			{Name: "tau2", Priority: 1, Period: Millis(20), Deadline: Millis(20), Cost: Millis(5)},
		},
		Horizon: Millis(200),
		Collect: &Collect{Mode: CollectStream},
	}
}

// withArrivals retargets tau2 at a Poisson source (task-targeted
// arrivals require skip_admission, which no eligibility rule reads).
func withArrivals(sc *Scenario) {
	sc.SkipAdmission = true
	sc.Arrivals = []Arrival{{Task: "tau2", Kind: "poisson", Mean: Millis(15), Seed: 7}}
}

// TestEligibilityTable shows each fast-forward and checkpoint rule
// stated once: a scenario violating exactly that rule is rejected by
// the scenario layer, and core (and the engine, for the features it
// sees) reject the same violation, called directly, with the same
// reason.
func TestEligibilityTable(t *testing.T) {
	base := eligibleScenario()
	set, err := base.TaskSet()
	if err != nil {
		t.Fatal(err)
	}
	arrivals := eligibleScenario()
	withArrivals(&arrivals)
	sources, err := arrivals.TaskSources()
	if err != nil {
		t.Fatal(err)
	}
	checker, err := verify.New(verify.Config{Tasks: set})
	if err != nil {
		t.Fatal(err)
	}
	faults := fault.Plan{"tau1": fault.OverrunAt{Job: 1, Extra: vtime.Millis(1)}}

	type layers struct {
		sc   func(*Scenario)
		core func(*core.Config)
		eng  func(*engine.Config)
	}
	for _, tc := range []struct {
		name       string
		checkpoint bool
		want       string
		layers
	}{
		{"ff/treatment", false, "treatment", layers{
			sc:   func(sc *Scenario) { sc.Treatment = "stop" },
			core: func(c *core.Config) { c.Treatment = detect.Stop }}},
		{"ff/retain", false, "Stream", layers{
			sc:   func(sc *Scenario) { sc.Collect = nil },
			core: func(c *core.Config) { c.Collect = engine.Retain },
			eng:  func(c *engine.Config) { c.Collect = engine.Retain }}},
		{"ff/arrivals", false, "arrivals", layers{
			sc:   withArrivals,
			core: func(c *core.Config) { c.SkipAdmission, c.Sources = true, sources },
			eng:  func(c *engine.Config) { c.Sources = sources }}},
		{"ff/faults", false, "fault plan", layers{
			sc: func(sc *Scenario) {
				sc.Faults = []Fault{{Task: "tau1", Kind: FaultOverrunAt, Job: 1, Extra: Millis(1)}}
			},
			core: func(c *core.Config) { c.Faults = faults },
			eng:  func(c *engine.Config) { c.Faults = faults }}},
		{"ff/stop jitter", false, "stop jitter", layers{
			sc:   func(sc *Scenario) { sc.StopJitterMax = Millis(1) },
			core: func(c *core.Config) { c.StopJitterMax = vtime.Millis(1) },
			eng:  func(c *engine.Config) { c.StopJitterMax = vtime.Millis(1) }}},
		{"ff/oracle", false, "oracle", layers{
			sc:   func(sc *Scenario) { sc.Verify = true },
			core: func(c *core.Config) { c.Checker = checker }}},
		{"ff/trace sink", false, "trace sink", layers{
			core: func(c *core.Config) { c.TraceSink = trace.Discard }}},
		{"ff/policy", false, "order-only", layers{
			sc:   func(sc *Scenario) { sc.Policy = "best-effort" },
			core: func(c *core.Config) { c.Policy = baselines.BestEffort{} },
			eng:  func(c *engine.Config) { c.Policy = baselines.BestEffort{} }}},

		{"cp/treatment", true, "treatment", layers{
			sc:   func(sc *Scenario) { sc.Treatment = "stop" },
			core: func(c *core.Config) { c.Treatment = detect.Stop }}},
		{"cp/retain", true, "streaming", layers{
			sc:   func(sc *Scenario) { sc.Collect = nil },
			core: func(c *core.Config) { c.Collect = engine.Retain },
			eng:  func(c *engine.Config) { c.Collect = engine.Retain }}},
		{"cp/servers", true, "servers", layers{
			sc: func(sc *Scenario) {
				sc.Servers = []Server{{
					Task:     Task{Name: "srv", Priority: 3, Period: Millis(40), Deadline: Millis(40), Cost: Millis(2)},
					Requests: []Request{{ID: "r1", Arrival: Millis(5), Cost: Millis(1)}},
				}}
			}}},
		{"cp/arrivals", true, "arrivals", layers{
			sc:   withArrivals,
			core: func(c *core.Config) { c.SkipAdmission, c.Sources = true, sources },
			eng:  func(c *engine.Config) { c.Sources = sources }}},
		{"cp/oracle", true, "oracle", layers{
			sc:   func(sc *Scenario) { sc.Verify = true },
			core: func(c *core.Config) { c.Checker = checker }}},
		{"cp/d-over", true, "d-over", layers{
			sc:   func(sc *Scenario) { sc.Policy = "d-over" },
			core: func(c *core.Config) { c.Policy = baselines.DOver{} },
			eng:  func(c *engine.Config) { c.Policy = baselines.DOver{} }}},
		{"cp/fast-forward", true, "fast-forward", layers{
			sc:   func(sc *Scenario) { sc.FastForward = true },
			core: func(c *core.Config) { c.FastForward = true },
			eng:  func(c *engine.Config) { c.FastForward = true }}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var reasons []string
			reason := func(layer, subject string, err error) {
				t.Helper()
				if err == nil {
					t.Fatalf("%s accepted the violation", layer)
				}
				why, ok := strings.CutPrefix(err.Error(), subject+" ")
				if !ok || !strings.Contains(why, tc.want) {
					t.Fatalf("%s: %v, want %q and a reason naming %q", layer, err, subject, tc.want)
				}
				reasons = append(reasons, why)
			}
			if tc.sc != nil {
				sc := eligibleScenario()
				sc.FastForward = !tc.checkpoint
				if err := sc.Validate(); err != nil {
					t.Fatalf("base scenario rejected: %v", err)
				}
				tc.sc(&sc)
				if tc.checkpoint {
					reason("scenario", "scenario: checkpointing", sc.Checkpointable())
				} else {
					reason("scenario", "scenario: fast_forward", sc.Validate())
				}
			}
			if tc.core != nil {
				cfg := core.Config{Tasks: set, Horizon: vtime.Millis(200), Collect: engine.Stream, FastForward: !tc.checkpoint}
				tc.core(&cfg)
				sys, err := core.NewSystem(cfg)
				if tc.checkpoint {
					if err != nil {
						t.Fatalf("core.NewSystem: %v", err)
					}
					_, err = sys.RunToCheckpoint(vtime.Millis(100))
					reason("core", "core: checkpointing", err)
				} else {
					reason("core", "core: fast-forward", err)
				}
			}
			if tc.eng != nil {
				cfg := engine.Config{Tasks: set, End: vtime.AtMillis(200), Collect: engine.Stream, FastForward: !tc.checkpoint}
				tc.eng(&cfg)
				e, err := engine.New(cfg)
				if tc.checkpoint {
					if err != nil {
						t.Fatalf("engine.New: %v", err)
					}
					_, err = e.Snapshot()
					reason("engine", "engine: Snapshot", err)
				} else {
					reason("engine", "engine: FastForward", err)
				}
			}
			for _, why := range reasons[1:] {
				if why != reasons[0] {
					t.Errorf("layers disagree: %q vs %q", reasons[0], why)
				}
			}
		})
	}
}
