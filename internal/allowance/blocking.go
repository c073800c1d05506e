package allowance

import (
	"errors"
	"fmt"

	"repro/internal/taskset"
	"repro/internal/vtime"
)

// EquitableWithBlocking answers the paper's §7 question — "it would
// be advisable to study the influence of tolerance on the
// determination of the blocking time (bi)" — in the forward
// direction: the equitable allowance of a system whose tasks incur
// the given blocking terms. Blocking consumes slack exactly like
// extra cost at the blocked task's level, so the allowance shrinks
// monotonically with every b_i.
func EquitableWithBlocking(s *taskset.Set, blocking []vtime.Duration, granularity vtime.Duration) (vtime.Duration, error) {
	return search(granularity, func(delta vtime.Duration) (bool, error) {
		return feasible(s.WithCostDelta(delta), blocking)
	})
}

// MaxBlockingTolerance is the converse direction: the largest uniform
// blocking term every task could incur while the system stays
// feasible *with* the equitable allowance already granted — i.e. how
// much lock contention the §4.2 treatment leaves room for.
func MaxBlockingTolerance(s *taskset.Set, allowanceGrant vtime.Duration, granularity vtime.Duration) (vtime.Duration, error) {
	inflated := s.WithCostDelta(allowanceGrant)
	return search(granularity, func(b vtime.Duration) (bool, error) {
		blocking := make([]vtime.Duration, s.Len())
		for i := range blocking {
			blocking[i] = b
		}
		return feasible(inflated, blocking)
	})
}

// BlockingTable reports, for a range of uniform blocking terms, the
// equitable allowance that survives — the §7 interaction quantified.
type BlockingTable struct {
	Blocking  []vtime.Duration
	Allowance []vtime.Duration
}

// SweepBlocking computes the allowance at each uniform blocking term
// in steps of step up to max. Entries where the system is infeasible
// even without any overrun carry a -1 sentinel; any other search error
// fails the sweep.
func SweepBlocking(s *taskset.Set, max, step vtime.Duration, granularity vtime.Duration) (*BlockingTable, error) {
	if step <= 0 {
		return nil, fmt.Errorf("allowance: step must be positive")
	}
	var tab BlockingTable
	for b := vtime.Duration(0); b <= max; b += step {
		blocking := make([]vtime.Duration, s.Len())
		for i := range blocking {
			blocking[i] = b
		}
		a, err := search(granularity, func(delta vtime.Duration) (bool, error) {
			return feasible(s.WithCostDelta(delta), blocking)
		})
		if errors.Is(err, errInfeasibleBase) {
			a, err = -1, nil
		}
		if err != nil {
			return nil, err
		}
		tab.Blocking = append(tab.Blocking, b)
		tab.Allowance = append(tab.Allowance, a)
	}
	return &tab, nil
}
