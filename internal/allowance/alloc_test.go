package allowance

import (
	"fmt"
	"testing"

	"repro/internal/analysis"
	"repro/internal/taskset"
	"repro/internal/vtime"
)

// TestComputeAllocs pins the allocation count of the full allowance
// analysis on the Table 2 set. Compute runs once per admitted run,
// inside every admitted simulation's setup, so a probe path that
// starts allocating (say, by validating each inflated set) shows up
// here before it shows up in a benchmark.
func TestComputeAllocs(t *testing.T) {
	const budget = 731
	s := table2()
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := Compute(s, 0); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > budget {
		t.Errorf("Compute(Table 2) allocates %.0f times per run, budget %d", allocs, budget)
	}
}

// BenchmarkAllowanceCompute prices the full allowance analysis —
// the equitable search, the shifted WCRTs and every task's maximum
// overrun at the default 1 ms granularity — on generated
// rate-monotonic sets at U = 0.7 of 8, 16 and 32 tasks.
func BenchmarkAllowanceCompute(b *testing.B) {
	for _, n := range []int{8, 16, 32} {
		s := feasibleSet(b, n, 0.7)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Compute(s, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// feasibleSet returns the first generated set (seeds 1, 2, ...) of n
// tasks at utilization u that admission control accepts. Costs are
// drawn at 10 µs granularity: at the default 1 ms, rounding every
// small cost up to a whole granule pushes 32-task sets past U = 1.
func feasibleSet(tb testing.TB, n int, u float64) *taskset.Set {
	for seed := uint64(1); seed <= 100; seed++ {
		gen := taskset.NewGenerator(seed)
		gen.Granularity = 10 * vtime.Microsecond
		s, err := gen.Generate(n, u)
		if err != nil {
			tb.Fatal(err)
		}
		if rep, err := analysis.Feasible(s); err == nil && rep.Feasible {
			return s
		}
	}
	tb.Fatalf("no feasible %d-task set at U = %v in 100 seeds", n, u)
	return nil
}
