package analysis

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/taskset"
	"repro/internal/vtime"
)

// table1 is the paper's Table 1: τ1(P20, D6, T6, C3), τ2(P15, D2, T4,
// C2). Under RTSJ priorities τ1 is the higher-priority task; the
// system has U = 1 exactly and τ2's responses exceed its period, so
// the arbitrary-deadline iteration is required.
func table1() *taskset.Set {
	return taskset.MustNew(
		taskset.Task{Name: "tau1", Priority: 20, Period: vtime.Millis(6), Deadline: vtime.Millis(6), Cost: vtime.Millis(3)},
		taskset.Task{Name: "tau2", Priority: 15, Period: vtime.Millis(4), Deadline: vtime.Millis(6), Cost: vtime.Millis(2)},
	)
}

// table2 is the paper's Table 2 evaluation system.
func table2() *taskset.Set {
	return taskset.MustNew(
		taskset.Task{Name: "tau1", Priority: 20, Period: vtime.Millis(200), Deadline: vtime.Millis(70), Cost: vtime.Millis(29)},
		taskset.Task{Name: "tau2", Priority: 18, Period: vtime.Millis(250), Deadline: vtime.Millis(120), Cost: vtime.Millis(29)},
		taskset.Task{Name: "tau3", Priority: 16, Period: vtime.Millis(1500), Deadline: vtime.Millis(120), Cost: vtime.Millis(29)},
	)
}

func ms(v int64) vtime.Duration { return vtime.Millis(v) }

func TestTable2ResponseTimes(t *testing.T) {
	// Paper Table 2: WCRT = 29, 58, 87 ms.
	s := table2()
	want := []vtime.Duration{ms(29), ms(58), ms(87)}
	got, err := ResponseTimes(s, nil)
	if err != nil {
		t.Fatalf("ResponseTimes: %v", err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("WCRT[%s] = %v, want %v", s.Tasks[i].Name, got[i], want[i])
		}
	}
}

func TestTable1JobResponseTimes(t *testing.T) {
	// The level-2 busy period of τ2 contains three jobs with
	// responses 5, 6, 4 ms: the worst case is the *second* job, not
	// the critical-instant job — the paper's Figure 1 point.
	s := table1()
	jobs, err := JobResponseTimes(s, 1, 0)
	if err != nil {
		t.Fatalf("JobResponseTimes: %v", err)
	}
	wantResp := []vtime.Duration{ms(5), ms(6), ms(4)}
	if len(jobs) != len(wantResp) {
		t.Fatalf("got %d jobs in busy period, want %d (%+v)", len(jobs), len(wantResp), jobs)
	}
	for i, w := range wantResp {
		if jobs[i].Response != w {
			t.Errorf("job q=%d response = %v, want %v", i, jobs[i].Response, w)
		}
	}
	wcrt, err := WCResponseTime(s, 1, 0)
	if err != nil {
		t.Fatalf("WCResponseTime: %v", err)
	}
	if wcrt != ms(6) {
		t.Errorf("WCRT(tau2) = %v, want 6ms", wcrt)
	}
	if jobs[0].Response >= wcrt {
		t.Errorf("critical-instant job response %v should be below the WCRT %v", jobs[0].Response, wcrt)
	}
}

func TestTable1HigherPriorityTask(t *testing.T) {
	// τ1 is the highest-priority task: its WCRT is its own cost.
	wcrt, err := WCResponseTime(table1(), 0, 0)
	if err != nil {
		t.Fatalf("WCResponseTime: %v", err)
	}
	if wcrt != ms(3) {
		t.Errorf("WCRT(tau1) = %v, want 3ms", wcrt)
	}
}

func TestLoadTest(t *testing.T) {
	if v := LoadTest(table1()); v != VerdictInconclusive {
		t.Errorf("Table 1 has U = 1: load test must be inconclusive, got %v", v)
	}
	over := taskset.MustNew(
		taskset.Task{Name: "a", Priority: 2, Period: ms(10), Deadline: ms(10), Cost: ms(6)},
		taskset.Task{Name: "b", Priority: 1, Period: ms(10), Deadline: ms(10), Cost: ms(5)},
	)
	if v := LoadTest(over); v != VerdictInfeasible {
		t.Errorf("U = 1.1 must be infeasible by Eq. 1, got %v", v)
	}
}

func TestUtilization(t *testing.T) {
	if u := table1().Utilization(); math.Abs(u-1.0) > 1e-12 {
		t.Errorf("Table 1 U = %v, want 1.0", u)
	}
	u := table2().Utilization()
	want := 29.0/200 + 29.0/250 + 29.0/1500
	if math.Abs(u-want) > 1e-12 {
		t.Errorf("Table 2 U = %v, want %v", u, want)
	}
}

func TestLiuLaylandAndHyperbolicBounds(t *testing.T) {
	// Table 2: U ≈ 0.2797, well under both bounds.
	s := table2()
	if v := LiuLaylandBound(s); v != VerdictFeasible {
		t.Errorf("LL bound on Table 2 = %v, want feasible", v)
	}
	if v := HyperbolicBound(s); v != VerdictFeasible {
		t.Errorf("hyperbolic bound on Table 2 = %v, want feasible", v)
	}
	// Three tasks at U=0.78 total exceed the LL bound (~0.7798) per
	// task set but pass hyperbolic only sometimes; construct a case
	// passing hyperbolic and failing LL to show dominance:
	// utilizations 0.5, 0.2, 0.1: LL bound 3(2^{1/3}-1)=0.7798 < 0.8;
	// hyperbolic: 1.5*1.2*1.1 = 1.98 ≤ 2 → feasible.
	s2 := taskset.MustNew(
		taskset.Task{Name: "a", Priority: 3, Period: ms(10), Deadline: ms(10), Cost: ms(5)},
		taskset.Task{Name: "b", Priority: 2, Period: ms(20), Deadline: ms(20), Cost: ms(4)},
		taskset.Task{Name: "c", Priority: 1, Period: ms(40), Deadline: ms(40), Cost: ms(4)},
	)
	if v := LiuLaylandBound(s2); v != VerdictInconclusive {
		t.Errorf("LL bound at U=0.8 with n=3 = %v, want inconclusive", v)
	}
	if v := HyperbolicBound(s2); v != VerdictFeasible {
		t.Errorf("hyperbolic bound on Π(Ui+1)=1.98 = %v, want feasible", v)
	}
}

func TestUnboundedResponseTime(t *testing.T) {
	s := taskset.MustNew(
		taskset.Task{Name: "hog", Priority: 9, Period: ms(10), Deadline: ms(100), Cost: ms(8)},
		taskset.Task{Name: "low", Priority: 1, Period: ms(10), Deadline: ms(100), Cost: ms(5)},
	)
	if _, err := WCResponseTime(s, 1, 0); err == nil {
		t.Fatal("expected unbounded response time at load 1.3")
	}
}

func TestBlockingTermExtendsResponse(t *testing.T) {
	// A blocking term models lower-priority critical sections (paper
	// §7 future work); it must add to every job's demand.
	s := table2()
	base, err := WCResponseTime(s, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	blocked, err := WCResponseTime(s, 1, ms(5))
	if err != nil {
		t.Fatal(err)
	}
	if blocked != base+ms(5) {
		t.Errorf("blocking 5ms: WCRT %v, want %v", blocked, base+ms(5))
	}
}

func TestFeasibleReport(t *testing.T) {
	rep, err := Feasible(table2())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Feasible || rep.Unbounded {
		t.Fatalf("Table 2 must be feasible: %+v", rep)
	}
	if len(rep.Misses) != 0 {
		t.Errorf("no misses expected, got %v", rep.Misses)
	}
	// Tighten τ3's deadline below its WCRT: infeasible with τ3 named.
	s := table2()
	s.Tasks[2].Deadline = ms(80)
	rep, err = Feasible(s)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Feasible {
		t.Fatal("deadline 80 < WCRT 87 must be infeasible")
	}
	if len(rep.Misses) != 1 || rep.Misses[0] != "tau3" {
		t.Errorf("misses = %v, want [tau3]", rep.Misses)
	}
	if got := rep.Render(s); got == "" {
		t.Error("Render returned empty report")
	}
}

func TestFeasibleOverload(t *testing.T) {
	s := taskset.MustNew(
		taskset.Task{Name: "a", Priority: 2, Period: ms(10), Deadline: ms(10), Cost: ms(7)},
		taskset.Task{Name: "b", Priority: 1, Period: ms(10), Deadline: ms(10), Cost: ms(7)},
	)
	rep, err := Feasible(s)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Unbounded || rep.Feasible {
		t.Fatalf("U=1.4 must report unbounded: %+v", rep)
	}
}

// TestFeasibleOverloadNamesMisses: an overloaded set (U = 1.1) still
// names its failing tasks, in set order: c, whose own plus
// higher-priority load exceeds 1, and b, bounded but with WCRT 6 ms
// past its 4 ms deadline. a is bounded and meets its deadline. WCRT
// stays unset, as for any unbounded report.
func TestFeasibleOverloadNamesMisses(t *testing.T) {
	s := taskset.MustNew(
		taskset.Task{Name: "c", Priority: 1, Period: ms(10), Deadline: ms(10), Cost: ms(5)},
		taskset.Task{Name: "a", Priority: 3, Period: ms(10), Deadline: ms(10), Cost: ms(3)},
		taskset.Task{Name: "b", Priority: 2, Period: ms(10), Deadline: ms(4), Cost: ms(3)},
	)
	rep, err := Feasible(s)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Unbounded || rep.Feasible || rep.WCRT != nil {
		t.Fatalf("U=1.1 must report unbounded and infeasible without WCRTs: %+v", rep)
	}
	if got := fmt.Sprint(rep.Misses); got != "[c b]" {
		t.Errorf("misses = %s, want [c b]", got)
	}
}

// TestWCRTDominatesCriticalInstant: the WCRT returned by the Figure 2
// algorithm is never below the critical-instant (q=0) response.
func TestWCRTDominatesCriticalInstant(t *testing.T) {
	gen := taskset.NewGenerator(42)
	for trial := 0; trial < 200; trial++ {
		s, err := gen.Generate(4, 0.85)
		if err != nil {
			t.Fatal(err)
		}
		for i := range s.Tasks {
			jobs, err := JobResponseTimes(s, i, 0)
			if err != nil {
				continue // level load may reach 1 on rounding; skip
			}
			wcrt, err := WCResponseTime(s, i, 0)
			if err != nil {
				t.Fatalf("trial %d: jobs converged but WCRT failed: %v", trial, err)
			}
			var max vtime.Duration
			for _, j := range jobs {
				if j.Response > max {
					max = j.Response
				}
			}
			if wcrt != max {
				t.Fatalf("trial %d task %d: WCRT %v != max job response %v", trial, i, wcrt, max)
			}
			if wcrt < jobs[0].Response {
				t.Fatalf("trial %d task %d: WCRT %v below critical-instant response %v", trial, i, wcrt, jobs[0].Response)
			}
		}
	}
}

// Property: WCRT is monotone in every task's cost — inflating any cost
// can never shrink any response time. This is the monotonicity the
// allowance binary search relies on.
func TestWCRTMonotoneInCost(t *testing.T) {
	gen := taskset.NewGenerator(7)
	for trial := 0; trial < 100; trial++ {
		s, err := gen.Generate(3, 0.6)
		if err != nil {
			t.Fatal(err)
		}
		base, err := ResponseTimes(s, nil)
		if err != nil {
			continue
		}
		inflated, err := ResponseTimes(s.WithCostDelta(vtime.Millis(1)), nil)
		if err != nil {
			continue // may have become unbounded — fine
		}
		for i := range base {
			if inflated[i] < base[i] {
				t.Fatalf("trial %d: inflating costs shrank WCRT[%d]: %v -> %v", trial, i, base[i], inflated[i])
			}
		}
	}
}

// Property (testing/quick): for two-task sets with the high-priority
// task's utilization strictly under 1, WCRT of the low-priority task
// equals the first idle-point fixed point and is at least C_low +
// C_high (both run at the critical instant).
func TestQuickTwoTaskLowerBound(t *testing.T) {
	f := func(c1, t1, c2, t2 uint8) bool {
		C1 := vtime.Millis(int64(c1%20) + 1)
		T1 := C1 + vtime.Millis(int64(t1%50)+1)
		C2 := vtime.Millis(int64(c2%20) + 1)
		T2 := C2 + vtime.Millis(int64(t2%50)+1)
		s := taskset.MustNew(
			taskset.Task{Name: "hi", Priority: 2, Period: T1, Deadline: 10 * T1, Cost: C1},
			taskset.Task{Name: "lo", Priority: 1, Period: T2, Deadline: 10 * T2, Cost: C2},
		)
		if s.Utilization() > 1 {
			return true // out of scope
		}
		wcrt, err := WCResponseTime(s, 1, 0)
		if err != nil {
			return s.Utilization() >= 1
		}
		return wcrt >= C1+C2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestVerdictString(t *testing.T) {
	cases := map[Verdict]string{
		VerdictFeasible:     "feasible",
		VerdictInfeasible:   "infeasible",
		VerdictInconclusive: "inconclusive",
	}
	for v, want := range cases {
		if v.String() != want {
			t.Errorf("Verdict(%d).String() = %q, want %q", v, v.String(), want)
		}
	}
}
