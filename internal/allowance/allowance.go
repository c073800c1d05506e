// Package allowance computes the paper's tolerance factors (§4.2 and
// §4.3): how much extra cost the tasks can absorb while the system
// remains theoretically feasible. The equitable allowance is the
// maximum Δ addable to *every* task cost; the system allowance is the
// maximum overrun a *single* task may make, granted entirely to the
// first faulty task with the leftover redistributed to later ones.
package allowance

import (
	"errors"
	"fmt"

	"repro/internal/analysis"
	"repro/internal/taskset"
	"repro/internal/vtime"
)

// DefaultGranularity is the search resolution. The paper works in
// whole milliseconds (Table 2 reports A = 11 ms); finer searches are
// possible but pointless below the platform timer resolution.
const DefaultGranularity = vtime.Millisecond

// Equitable performs the paper's §4.2 computation: a binary search for
// the maximum value that can be added to the costs of all the tasks so
// that the system remains feasible under the Figure 2 analysis. The
// granularity bounds the search resolution (0 means
// DefaultGranularity).
func Equitable(s *taskset.Set, granularity vtime.Duration) (vtime.Duration, error) {
	return search(granularity, func(delta vtime.Duration) (bool, error) {
		return feasible(s.WithCostDelta(delta), nil)
	})
}

// MaxOverrun returns the maximum cost overrun task i alone can make
// while the whole system stays feasible — the per-task bound behind
// the §4.3 system allowance ("looking for the maximum cost overrun
// this task can do").
func MaxOverrun(s *taskset.Set, i int, granularity vtime.Duration) (vtime.Duration, error) {
	if i < 0 || i >= s.Len() {
		return 0, fmt.Errorf("allowance: task index %d out of range", i)
	}
	return search(granularity, func(delta vtime.Duration) (bool, error) {
		return feasible(s.WithTaskCostDelta(i, delta), nil)
	})
}

// System computes the §4.3 system allowance: the maximum free time in
// the system, i.e. the largest overrun grantable in full to the first
// faulty task. The paper grants the first faulty task its own
// MaxOverrun; because any task's overrun must keep every
// lower-priority task feasible, the highest-priority task's
// MaxOverrun is the figure the paper quotes (33 ms for Table 2).
// System returns MaxOverrun for every task, in set order.
func System(s *taskset.Set, granularity vtime.Duration) ([]vtime.Duration, error) {
	out := make([]vtime.Duration, s.Len())
	for i := range s.Tasks {
		a, err := MaxOverrun(s, i, granularity)
		if err != nil {
			return nil, fmt.Errorf("allowance: task %s: %w", s.Tasks[i].Name, err)
		}
		out[i] = a
	}
	return out, nil
}

// errInfeasibleBase is search's verdict on a system that is
// infeasible before any overrun is granted.
var errInfeasibleBase = errors.New("allowance: system infeasible with no overrun; nothing to grant")

// search binary-searches the largest delta (a multiple of the
// granularity) for which ok(delta) holds. ok must be monotone
// (feasible at 0, eventually infeasible); when ok(0) fails, search
// returns errInfeasibleBase.
func search(granularity vtime.Duration, ok func(vtime.Duration) (bool, error)) (vtime.Duration, error) {
	if granularity <= 0 {
		granularity = DefaultGranularity
	}
	if feas, err := ok(0); err != nil {
		return 0, err
	} else if !feas {
		return 0, errInfeasibleBase
	}
	// Exponential probe for an infeasible upper bound.
	hi := granularity
	for {
		feas, err := ok(hi)
		if err != nil {
			return 0, err
		}
		if !feas {
			break
		}
		if hi > vtime.Duration(1)<<50 {
			return 0, fmt.Errorf("allowance: allowance appears unbounded (system never becomes infeasible)")
		}
		hi *= 2
	}
	// Invariant: ok(lo) holds, ok(hi) fails.
	lo := vtime.Duration(0)
	for hi-lo > granularity {
		mid := lo + ((hi - lo) / 2).Floor(granularity)
		if mid <= lo {
			mid = lo + granularity
		}
		feas, err := ok(mid)
		if err != nil {
			return 0, err
		}
		if feas {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, nil
}

// feasible is the one probe predicate behind every allowance search:
// the exact Figure 2 test of a (cost-inflated) set under optional
// per-task blocking terms (nil = none). A cost inflated past its
// deadline is infeasible by definition — Set.Validate would reject it,
// and would build two maps per probe doing so — so it is tested
// directly. A diverging response time is a verdict (infeasible); any
// other analysis error is returned.
func feasible(s *taskset.Set, blocking []vtime.Duration) (bool, error) {
	for _, t := range s.Tasks {
		if t.Cost > t.Deadline {
			return false, nil
		}
	}
	if s.Utilization() > 1 {
		return false, nil
	}
	wcrt, err := analysis.ResponseTimes(s, blocking)
	if errors.Is(err, analysis.ErrUnbounded) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	for i, t := range s.Tasks {
		if wcrt[i] > t.Deadline {
			return false, nil
		}
	}
	return true, nil
}

// Table is the result of the full allowance analysis used by the
// treatments: per-task WCRT, the equitable allowance and the shifted
// WCRTs of the paper's Table 3, and the per-task maximum overruns for
// the system treatment.
type Table struct {
	// WCRT is the nominal worst-case response time per task.
	WCRT []vtime.Duration
	// Equitable is the per-task allowance Δ of §4.2 (a single value,
	// equal for all tasks).
	Equitable vtime.Duration
	// EquitableWCRT is the worst-case response time of each task when
	// every task overruns by Equitable — the paper's Table 3 values
	// WCRT_i + Σ_{j: Pj ≥ Pi} A. Detectors under the equitable
	// treatment fire at these offsets.
	EquitableWCRT []vtime.Duration
	// MaxOverrun is the §4.3 per-task maximum single-task overrun;
	// MaxOverrun of the highest-priority task is the paper's "maximum
	// free time available in the system" (33 ms for Table 2).
	MaxOverrun []vtime.Duration
}

// Compute runs the complete allowance analysis at the given
// granularity (0 means DefaultGranularity).
func Compute(s *taskset.Set, granularity vtime.Duration) (*Table, error) {
	wcrt, err := analysis.ResponseTimes(s, nil)
	if err != nil {
		return nil, err
	}
	eq, err := Equitable(s, granularity)
	if err != nil {
		return nil, err
	}
	eqWCRT, err := analysis.ResponseTimes(s.WithCostDelta(eq), nil)
	if err != nil {
		return nil, fmt.Errorf("allowance: WCRT with equitable overruns: %w", err)
	}
	maxo, err := System(s, granularity)
	if err != nil {
		return nil, err
	}
	return &Table{WCRT: wcrt, Equitable: eq, EquitableWCRT: eqWCRT, MaxOverrun: maxo}, nil
}
