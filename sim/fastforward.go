package sim

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/metrics"
	"repro/internal/verify/gen"
	"repro/internal/vtime"
)

// The X14 fast-forward differential sweep: seeded random fast-forward-
// eligible scenarios (gen.FastForwardable — harmonic 200 ms
// hyperperiod grids, offsets, both order-only policies, a third on 2
// or 4 cores) each run twice. The reference run disables fast-forward,
// retains the full log and arms the invariant oracle — the exact
// ground truth, axiom-checked the same way the x11 sweep checks its
// scenarios. The fast-forward run executes the scenario as declared.
// The two must agree exactly on every count, switch total and response
// moment (reportDivergence, the x11 criterion), and the fast-forward
// percentiles must sit inside the widened ±2εn rank window of the
// reference's exact distribution (the ScaleMerge bound: one scaled
// merge doubles the sketch's ε). The sweep also fails if not a single
// scenario engaged the jump — a silently never-detecting fingerprint
// would otherwise pass every equality trivially.

// FastForwardSeed and FastForwardCount parameterize the default sweep
// (the "x14" registry entry and `make ci`).
const (
	FastForwardSeed  uint64 = 0x5EED_FA57
	FastForwardCount        = 48
)

// FastForwardPoint summarizes one scenario of the sweep.
type FastForwardPoint struct {
	// Seed derives the scenario (gen.FastForwardable(Seed)).
	Seed uint64 `json:"seed"`
	// Name is the generated scenario name.
	Name string `json:"name"`
	// Policy and CPUs echo the drawn configuration.
	Policy string `json:"policy"`
	CPUs   int    `json:"cpus,omitempty"`
	// Tasks counts periodic tasks.
	Tasks int `json:"tasks"`
	// Cycles is the number of whole hyperperiod cycles in the horizon.
	Cycles int64 `json:"cycles"`
	// Skipped is how many of them the fast-forward run extrapolated
	// analytically (0 = the transient never settled within the horizon).
	Skipped int64 `json:"skipped"`
	// Released totals released jobs across tasks (reference run).
	Released int `json:"released"`
}

// FastForwardSweep runs the differential over seeds derived from base.
// Every scenario's fast-forward run must reproduce its oracle-verified
// full run, and at least one scenario must actually engage the jump;
// the first divergence aborts the sweep.
func FastForwardSweep(ctx context.Context, base uint64, n int, opt RunOptions) ([]FastForwardPoint, error) {
	points, err := sweep(ctx, base, n, opt, func(_ int, seed uint64) (FastForwardPoint, error) {
		return fastForwardOne(seed)
	})
	if err != nil {
		return points, err
	}
	engaged := 0
	for _, p := range points {
		if p.Skipped > 0 {
			engaged++
		}
	}
	if engaged == 0 {
		return points, fmt.Errorf("sim: x14: no scenario engaged fast-forward — every equality held trivially; the fingerprint never detects")
	}
	return points, nil
}

// FastForwardCheck runs one seed's differential — the FuzzScenario
// fast-forward leg. It returns nil when the fast-forward run
// reproduces the oracle-verified full run.
func FastForwardCheck(seed uint64) error {
	_, err := fastForwardOne(seed)
	return err
}

// fastForwardOne runs one seed's scenario with and without
// fast-forward and cross-checks the results.
func fastForwardOne(seed uint64) (FastForwardPoint, error) {
	sc := gen.FastForwardable(seed)
	point := FastForwardPoint{
		Seed:   seed,
		Name:   sc.Name,
		Policy: sc.Policy,
		CPUs:   sc.CPUs,
		Tasks:  len(sc.Tasks),
	}

	// Reference: fast-forward off, full log retained, oracle armed.
	ref := sc
	ref.FastForward = false
	ref.Collect = nil
	refRes, err := verifiedRun(ref)
	if err != nil {
		return point, fmt.Errorf("seed %#x (full reference run): %w", seed, err)
	}
	point.Released = refRes.Report.TotalReleased()

	ffRes, err := runScenario(sc)
	if err != nil {
		return point, fmt.Errorf("seed %#x (fast-forward run): %w", seed, err)
	}
	point.Skipped = ffRes.SkippedCycles
	if h := ffHyperperiod(&sc); h > 0 {
		point.Cycles = int64(sc.Horizon.D()) / int64(h)
	}

	if diff := reportDivergence(refRes, ffRes); diff != "" {
		return point, fmt.Errorf("seed %#x: fast-forward and full run diverge: %s (reproduce with gen.FastForwardable(%#x))", seed, diff, seed)
	}
	if err := ffPercentilesWithinBound(refRes, ffRes); err != nil {
		return point, fmt.Errorf("seed %#x: %w (reproduce with gen.FastForwardable(%#x))", seed, err, seed)
	}
	return point, nil
}

// ffHyperperiod computes the scenario's hyperperiod for the cycle
// column (zero on overflow, which the generator never produces).
func ffHyperperiod(sc *Scenario) vtime.Duration {
	set, err := sc.TaskSet()
	if err != nil {
		return 0
	}
	h, err := set.Hyperperiod()
	if err != nil {
		return 0
	}
	return h
}

// ffPercentilesWithinBound checks every task's fast-forward streamed
// percentiles against the reference run's exact sorted responses: the
// answer must lie inside the ±2εn rank window (ε doubled by the
// analytic jump's single scaled sketch merge).
func ffPercentilesWithinBound(refRes, ffRes *RunResult) error {
	eps := 2 * metrics.DefaultSketchEpsilon
	for _, task := range refRes.Report.TaskNames() {
		exact := exactSortedResponses(refRes.Report, task)
		for _, p := range []float64{50, 90, 99} {
			got, ok := ffRes.Report.ResponsePercentile(task, p)
			if len(exact) == 0 {
				if ok {
					return fmt.Errorf("task %s p%v: fast-forward answered %v with no successful jobs", task, p, got)
				}
				continue
			}
			if !ok {
				return fmt.Errorf("task %s p%v: fast-forward run has no answer", task, p)
			}
			n := len(exact)
			rank := int(math.Ceil(p / 100 * float64(n)))
			if rank < 1 {
				rank = 1
			}
			e := int(math.Ceil(eps * float64(n)))
			lo, hi := rank-e, rank+e
			if lo < 1 {
				lo = 1
			}
			if hi > n {
				hi = n
			}
			if got < exact[lo-1] || got > exact[hi-1] {
				return fmt.Errorf("task %s p%v = %v outside ±%d-rank window [%v, %v] of %d responses",
					task, p, got, e, exact[lo-1], exact[hi-1], n)
			}
		}
	}
	return nil
}

// exactSortedResponses extracts the sorted successful response times
// of one task from a retained report.
func exactSortedResponses(rep *metrics.Report, task string) []vtime.Duration {
	var out []vtime.Duration
	for _, j := range rep.Jobs {
		if j.Task == task && !j.Failed() && j.End != (vtime.Time(0)) {
			out = append(out, j.Response())
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// RenderFastForward prints the sweep in the artefact table style.
func RenderFastForward(points []FastForwardPoint) string {
	var b strings.Builder
	b.WriteString("X14 — fast-forward differential sweep: analytic cycle jumps reproduce the oracle-verified full runs\n")
	fmt.Fprintf(&b, "%-22s %-14s %4s %5s %8s %7s %8s %8s\n",
		"scenario", "policy", "cpus", "tasks", "released", "cycles", "skipped", "sim'd")
	var engaged int
	var skipped, cycles int64
	for _, p := range points {
		if p.Skipped > 0 {
			engaged++
		}
		skipped += p.Skipped
		cycles += p.Cycles
		cpus := p.CPUs
		if cpus == 0 {
			cpus = 1
		}
		fmt.Fprintf(&b, "%-22s %-14s %4d %5d %8d %7d %8d %8d\n",
			p.Name, p.Policy, cpus, p.Tasks, p.Released, p.Cycles, p.Skipped, p.Cycles-p.Skipped)
	}
	fmt.Fprintf(&b, "%d scenarios cross-checked against oracle-verified full runs, %d engaged the jump, %d of %d hyperperiod cycles extrapolated, 0 divergences\n",
		len(points), engaged, skipped, cycles)
	return b.String()
}
