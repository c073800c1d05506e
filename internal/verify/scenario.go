package verify

import (
	"fmt"

	"repro/internal/detect"
	"repro/internal/taskset"
	"repro/internal/vtime"
	"repro/sim/scenario"
)

// ForScenario builds the checker a declarative scenario's run must
// satisfy: the declared tasks (periodic tasks first, then one per
// server, matching the engine's id order), the named policy's
// dispatch order, the detector offsets the treatment arms (recomputed
// from the allowance analysis, exactly as the supervisor does), the
// budgets of servers whose demand is not perturbed by a declared
// fault, and — on multiprocessor scenarios — the CPU count plus the
// partitioned task→core assignment, recomputed by the same bin
// packing the run uses. It is how sim arms the oracle on a run, and
// how a decoded trace on disk is replayed semantically.
func ForScenario(sc *scenario.Scenario) (*Checker, error) {
	set, err := sc.TaskSet()
	if err != nil {
		return nil, err
	}
	cfg := Config{
		Tasks:         set,
		Policy:        sc.Policy,
		ServerBudgets: serverBudgets(sc),
		ContextSwitch: sc.ContextSwitch.D(),
		Horizon:       vtime.Time(sc.Horizon),
		CPUs:          sc.CPUs,
	}
	// Source-driven tasks get a fresh replay iterator (same kind,
	// parameters and seed as the run's own): the checker re-derives
	// every expected arrival instead of trusting the trace. Server-fed
	// sources don't appear here — the server task itself stays
	// periodic; its materialized requests are checked by the budget
	// axiom.
	if sources, err := sc.TaskSources(); err != nil {
		return nil, err
	} else if sources != nil {
		cfg.Sources = make(map[string]taskset.Source)
		for i, src := range sources {
			if src != nil {
				cfg.Sources[set.Tasks[i].Name] = src
			}
		}
	}
	if sc.Partitioned() {
		assignment, err := sc.Partition()
		if err != nil {
			return nil, err
		}
		cfg.Assignment = make(map[string]int, set.Len())
		for i, t := range set.Tasks {
			cfg.Assignment[t.Name] = assignment[i]
		}
	}
	tr, err := detect.ParseTreatment(sc.Treatment)
	if err != nil {
		return nil, err
	}
	if tr != detect.NoDetection {
		cfg.DetectorOffsets, err = detectorOffsets(set, tr, sc.TimerResolution.D())
		if err != nil {
			return nil, err
		}
	}
	return New(cfg)
}

// detectorOffsets derives the latest-detection bound of every task —
// the per-period detector offset the supervisor arms: the WCRT (or
// the equitable shifted WCRT), quantized up to the timer resolution.
func detectorOffsets(set *taskset.Set, tr detect.Treatment, resolution vtime.Duration) (map[string]vtime.Duration, error) {
	sup, err := detect.NewSupervisor(set, detect.Config{Treatment: tr, TimerResolution: resolution})
	if err != nil {
		return nil, fmt.Errorf("verify: deriving detector offsets: %w", err)
	}
	offs := make(map[string]vtime.Duration, set.Len())
	for _, t := range set.Tasks {
		if off, ok := sup.DetectorOffset(t.Name); ok {
			offs[t.Name] = off
		}
	}
	return offs, nil
}

// serverBudgets maps each declared polling server to its per-job
// capacity — except servers targeted by a declared fault entry, whose
// demand is deliberately perturbed beyond the declaration (a "buggy
// server" scenario) and therefore exempt from the budget axiom.
func serverBudgets(sc *scenario.Scenario) map[string]vtime.Duration {
	if len(sc.Servers) == 0 {
		return nil
	}
	faulted := make(map[string]bool, len(sc.Faults))
	for _, f := range sc.Faults {
		faulted[f.Task] = true
	}
	budgets := make(map[string]vtime.Duration, len(sc.Servers))
	for _, srv := range sc.Servers {
		if !faulted[srv.Task.Name] {
			budgets[srv.Task.Name] = srv.Task.Cost.D()
		}
	}
	return budgets
}
