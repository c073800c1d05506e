package allowance

import (
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/taskset"
	"repro/internal/vtime"
)

func TestEquitableWithBlockingShrinks(t *testing.T) {
	s := table2()
	base, err := Equitable(s, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Uniform 5 ms blocking: τ3's binding constraint becomes
	// 3·(29+A) + 5 ≤ 120 → A ≤ 9 (whole ms).
	blocking := []vtime.Duration{ms(5), ms(5), ms(5)}
	withB, err := EquitableWithBlocking(s, blocking, 0)
	if err != nil {
		t.Fatal(err)
	}
	if withB >= base {
		t.Fatalf("blocking must shrink the allowance: %v -> %v", base, withB)
	}
	if withB != ms(9) {
		t.Fatalf("allowance under uniform 5ms blocking = %v, want 9ms", withB)
	}
	// Blocking only tasks above the binding one leaves A unchanged:
	// τ3's constraint does not see b1/b2.
	same, err := EquitableWithBlocking(s, []vtime.Duration{ms(5), ms(5), 0}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if same != base {
		t.Fatalf("blocking non-binding tasks changed the allowance: %v -> %v", base, same)
	}
}

func TestBlockingOnBindingTask(t *testing.T) {
	s := table2()
	// τ3 is the binding constraint (3·(29+A) + b3 ≤ 120). With
	// b3 = 6, A drops to 9: 3·38+6 = 120.
	blocking := []vtime.Duration{0, 0, ms(6)}
	a, err := EquitableWithBlocking(s, blocking, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a != ms(9) {
		t.Fatalf("allowance with b3=6 is %v, want 9ms", a)
	}
}

func TestMaxBlockingTolerance(t *testing.T) {
	s := table2()
	// With the full allowance (11) granted, τ3's bound is exactly
	// tight (3·40 = 120): zero blocking tolerance remains.
	b, err := MaxBlockingTolerance(s, ms(11), 0)
	if err != nil {
		t.Fatal(err)
	}
	if b != 0 {
		t.Fatalf("blocking tolerance at full allowance = %v, want 0", b)
	}
	// With no allowance granted, τ3 has 120−87 = 33 of slack.
	b, err = MaxBlockingTolerance(s, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if b != ms(33) {
		t.Fatalf("blocking tolerance with no allowance = %v, want 33ms", b)
	}
	// Halfway: A = 5 → τ3 at 3·34 = 102, slack 18.
	b, err = MaxBlockingTolerance(s, ms(5), 0)
	if err != nil {
		t.Fatal(err)
	}
	if b != ms(18) {
		t.Fatalf("blocking tolerance at A=5 = %v, want 18ms", b)
	}
}

func TestSweepBlocking(t *testing.T) {
	s := table2()
	tab, err := SweepBlocking(s, ms(40), ms(10), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Blocking) != 5 {
		t.Fatalf("points = %d, want 5", len(tab.Blocking))
	}
	// Allowance decreases monotonically and hits the -1 sentinel
	// once blocking alone breaks feasibility (b=40 > 33 slack).
	for i := 1; i < len(tab.Allowance); i++ {
		prev, cur := tab.Allowance[i-1], tab.Allowance[i]
		if prev >= 0 && cur >= 0 && cur > prev {
			t.Fatalf("allowance grew with blocking: %v -> %v", prev, cur)
		}
	}
	if tab.Allowance[0] != ms(11) {
		t.Errorf("b=0 allowance = %v, want 11ms", tab.Allowance[0])
	}
	last := tab.Allowance[len(tab.Allowance)-1]
	if last != -1 {
		t.Errorf("b=40ms must be infeasible (sentinel -1), got %v", last)
	}
}

func TestCeilingBlockingDerivation(t *testing.T) {
	s := table2()
	cs := []vtime.Duration{ms(2), ms(7), ms(4)}
	b, err := analysis.CeilingBlocking(s, cs)
	if err != nil {
		t.Fatal(err)
	}
	// τ1 blocked by the longest lower section (max of 7, 4) = 7;
	// τ2 by τ3's 4; τ3 by nobody.
	want := []vtime.Duration{ms(7), ms(4), 0}
	for i := range want {
		if b[i] != want[i] {
			t.Errorf("b[%d] = %v, want %v", i, b[i], want[i])
		}
	}
	if _, err := analysis.CeilingBlocking(s, cs[:1]); err == nil {
		t.Error("length mismatch must error")
	}
}

func TestResponseTimesWithBlocking(t *testing.T) {
	s := table2()
	wcrt, err := analysis.ResponseTimes(s, []vtime.Duration{ms(10), 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if wcrt[0] != ms(39) || wcrt[1] != ms(58) || wcrt[2] != ms(87) {
		t.Fatalf("WCRTs with b1=10: %v", wcrt)
	}
	if _, err := analysis.ResponseTimes(s, []vtime.Duration{ms(1)}); err == nil {
		t.Error("length mismatch must error")
	}
	ok, err := feasible(s, []vtime.Duration{0, 0, ms(33)})
	if err != nil || !ok {
		t.Errorf("b3=33 exactly fills τ3's slack: feasible, got %v %v", ok, err)
	}
	ok, err = feasible(s, []vtime.Duration{0, 0, ms(34)})
	if err != nil || ok {
		t.Errorf("b3=34 must be infeasible, got %v %v", ok, err)
	}
}

// TestBlockingErrorsSurface pins that analysis errors reach the
// caller instead of reading as "infeasible": a blocking vector of the
// wrong length is a caller error, and a sweep whose search fails for
// any reason other than an infeasible base fails as a whole.
func TestBlockingErrorsSurface(t *testing.T) {
	_, err := EquitableWithBlocking(table2(), []vtime.Duration{ms(1)}, 0)
	if err == nil || !strings.Contains(err.Error(), "blocking has 1 entries for 3 tasks") {
		t.Errorf("length mismatch: got %v", err)
	}
	// With no tasks nothing ever becomes infeasible: the search
	// reports an unbounded allowance, which the sweep must not hide
	// behind a zero entry.
	if tab, err := SweepBlocking(&taskset.Set{}, ms(10), ms(10), 0); err == nil {
		t.Errorf("unbounded search swallowed: got table %+v", tab)
	}
}
