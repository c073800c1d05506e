package sim

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/taskset"
	"repro/internal/vtime"
	"repro/sim/scenario"
)

// The X15 open-arrivals differential sweep: seeded scenarios covering
// every arrival-source kind (Poisson, MMPP, trace replay), each run
// under the online invariant oracle — whose release axiom replays the
// source independently, so every "random" arrival instant is checked
// exactly — in both collection modes, asserting zero violations and
// retain ≡ stream report equivalence (crossCollect, the x11 leg, which
// also shrinks a failing scenario to a reproducer). On top of the
// differential, the sweep pins two source-specific contracts: realized
// Poisson inter-arrival gaps pass a Kolmogorov–Smirnov bound against
// the declared exponential law, and every generated trace re-encodes
// byte for byte through ParseTrace ∘ EncodeTrace.

// OpenArrivalsSeed and OpenArrivalsCount parameterize the default
// sweep (the "x15" registry entry and `make ci`). The count is a
// multiple of three so each source kind gets an equal share.
const (
	OpenArrivalsSeed  uint64 = 0xA441_5EED
	OpenArrivalsCount        = 18
)

// ksBound is the Kolmogorov–Smirnov acceptance threshold coefficient
// at significance 0.01: D_n must stay below ksBound/√n. The sweep is
// seed-deterministic, so a pass can never flake — the bound only
// catches a mis-scaled or mis-shaped inter-arrival law.
const ksBound = 1.63

// OpenArrivalPoint summarizes one scenario of the sweep.
type OpenArrivalPoint struct {
	// Seed derives the scenario and its source parameters.
	Seed uint64 `json:"seed"`
	// Kind is the arrival-source kind under test.
	Kind string `json:"kind"`
	// Name is the generated scenario name.
	Name string `json:"name"`
	// Released totals released jobs across tasks (retained run).
	Released int `json:"released"`
	// Modes lists the collection modes run ("retain", "stream").
	Modes []string `json:"modes"`
	// Gaps is the number of realized inter-arrival gaps the KS bound
	// covered (Poisson points only).
	Gaps int `json:"gaps,omitempty"`
	// KS is the realized Kolmogorov–Smirnov statistic (Poisson only).
	KS float64 `json:"ks,omitempty"`
	// TraceBytes is the canonical trace length whose re-encode
	// identity was checked (trace points only).
	TraceBytes int `json:"trace_bytes,omitempty"`
}

// OpenArrivalsSweep runs the sweep over seeds derived from base,
// cycling the source kind per point.
func OpenArrivalsSweep(ctx context.Context, base uint64, n int, opt RunOptions) ([]OpenArrivalPoint, error) {
	kinds := []string{ArrivalPoisson, ArrivalMMPP, ArrivalTrace}
	return sweep(ctx, base, n, opt, func(i int, seed uint64) (OpenArrivalPoint, error) {
		return openArrivalOne(kinds[i%len(kinds)], seed)
	})
}

// openArrivalOne runs one (kind, seed) scenario through the oracle in
// both collection modes, cross-checks the reports, and applies the
// kind-specific contract.
func openArrivalOne(kind string, seed uint64) (OpenArrivalPoint, error) {
	sc := openArrivalScenario(kind, seed)
	point := OpenArrivalPoint{Seed: seed, Kind: kind, Name: sc.Name}
	modes := []string{scenario.CollectRetain, scenario.CollectStream}
	retained, err := crossCollect(sc, modes)
	if err != nil {
		return point, fmt.Errorf("x15 seed %#x (%s source): %w", seed, kind, err)
	}
	point.Modes = modes
	point.Released = retained.Report.TotalReleased()

	switch kind {
	case ArrivalPoisson:
		a := sc.Arrivals[0]
		gaps, err := realizedGaps(a, vtime.Time(sc.Horizon))
		if err != nil {
			return point, err
		}
		point.Gaps = len(gaps)
		if len(gaps) < 30 {
			return point, fmt.Errorf("x15 seed %#x: only %d realized Poisson gaps — too few for the KS bound (widen the horizon or tighten the mean draw)", seed, len(gaps))
		}
		point.KS = ksExponential(gaps, a.Mean.D())
		if limit := ksBound / math.Sqrt(float64(len(gaps))); point.KS > limit {
			return point, fmt.Errorf("x15 seed %#x: Poisson inter-arrival KS statistic %.4f exceeds %.4f over %d gaps (mean %v) — the realized gaps do not look exponential",
				seed, point.KS, limit, len(gaps), a.Mean.D())
		}
	case ArrivalTrace:
		records := make([]taskset.TraceRecord, len(sc.Arrivals[0].Records))
		for i, r := range sc.Arrivals[0].Records {
			records[i] = r.Record()
		}
		encoded := taskset.EncodeTrace(records)
		point.TraceBytes = len(encoded)
		parsed, err := taskset.ParseTrace(encoded)
		if err != nil {
			return point, fmt.Errorf("x15 seed %#x: canonical trace does not re-parse: %w", seed, err)
		}
		if again := taskset.EncodeTrace(parsed); !bytes.Equal(again, encoded) {
			return point, fmt.Errorf("x15 seed %#x: trace re-encode is not byte-identical (%d vs %d bytes)", seed, len(again), len(encoded))
		}
	}
	return point, nil
}

// openArrivalScenario derives one admission-skipping scenario with a
// source-driven task of the given kind beside a periodic competitor,
// its parameters drawn deterministically from the seed.
func openArrivalScenario(kind string, seed uint64) scenario.Scenario {
	rng := taskset.NewRand(seed)
	sc := scenario.Scenario{
		Name: fmt.Sprintf("x15-%s-%04x", kind, seed&0xFFFF),
		Tasks: []scenario.Task{
			{Name: "steady", Priority: 10, Period: Millis(40), Deadline: Millis(40), Cost: Millis(4)},
			{Name: "open", Priority: 5, Period: Millis(50), Deadline: Millis(30), Cost: Millis(2)},
		},
		Horizon:       Millis(2000),
		Seed:          seed,
		SkipAdmission: true,
	}
	a := scenario.Arrival{Task: "open", Kind: kind}
	if kind != ArrivalTrace {
		a.Seed = seed | 1 // trace replay is literal; only stochastic kinds draw
	}
	switch kind {
	case ArrivalPoisson:
		// Mean in [8ms, 24ms]: ≥ ~80 expected gaps over the horizon,
		// comfortably past the KS small-sample floor.
		a.Mean = scenario.Duration(rng.DurationIn(8*vtime.Millisecond, 24*vtime.Millisecond))
	case ArrivalMMPP:
		a.Mean = scenario.Duration(rng.DurationIn(30*vtime.Millisecond, 60*vtime.Millisecond))
		a.BurstMean = scenario.Duration(rng.DurationIn(3*vtime.Millisecond, 8*vtime.Millisecond))
		a.Dwell = scenario.Duration(rng.DurationIn(200*vtime.Millisecond, 400*vtime.Millisecond))
		a.BurstDwell = scenario.Duration(rng.DurationIn(80*vtime.Millisecond, 160*vtime.Millisecond))
	case ArrivalTrace:
		n := 20 + rng.Intn(30)
		at := vtime.Duration(0)
		records := make([]scenario.TraceRecord, n)
		for i := range records {
			at += rng.DurationIn(vtime.Millisecond, 60*vtime.Millisecond)
			rec := scenario.TraceRecord{
				Release: scenario.Duration(at),
				Cost:    scenario.Duration(rng.DurationIn(vtime.Millisecond, 4*vtime.Millisecond)),
			}
			if i%3 == 0 {
				rec.Deadline = scenario.Duration(vtime.Duration(rec.Cost) + rng.DurationIn(5*vtime.Millisecond, 25*vtime.Millisecond))
			}
			records[i] = rec
		}
		a.Records = records
	}
	sc.Arrivals = []scenario.Arrival{a}
	return sc
}

// realizedGaps replays the arrival's source fresh and returns the
// inter-arrival gaps of every release inside the horizon.
func realizedGaps(a scenario.Arrival, horizon vtime.Time) ([]vtime.Duration, error) {
	src, err := taskset.NewPoisson(a.Mean.D(), a.Seed)
	if err != nil {
		return nil, err
	}
	var gaps []vtime.Duration
	prev := vtime.Time(0)
	for {
		rel, ok := src.Next()
		if !ok || rel.At.After(horizon) {
			return gaps, nil
		}
		gaps = append(gaps, vtime.Duration(rel.At.Sub(prev)))
		prev = rel.At
	}
}

// ksExponential returns the Kolmogorov–Smirnov statistic of the gaps
// against the exponential CDF with the given mean.
func ksExponential(gaps []vtime.Duration, mean vtime.Duration) float64 {
	xs := make([]float64, len(gaps))
	for i, g := range gaps {
		xs[i] = float64(g)
	}
	sort.Float64s(xs)
	n := float64(len(xs))
	var d float64
	for i, x := range xs {
		f := 1 - math.Exp(-x/float64(mean))
		if hi := float64(i+1)/n - f; hi > d {
			d = hi
		}
		if lo := f - float64(i)/n; lo > d {
			d = lo
		}
	}
	return d
}

// RenderOpenArrivals prints the sweep in the artefact table style.
func RenderOpenArrivals(points []OpenArrivalPoint) string {
	var b strings.Builder
	b.WriteString("X15 — open-arrivals differential sweep: every source kind oracle-clean, retain ≡ stream\n")
	fmt.Fprintf(&b, "%-18s %-8s %8s  %-13s %6s %8s %12s\n",
		"scenario", "kind", "released", "modes", "gaps", "KS", "trace bytes")
	counts := map[string]int{}
	for _, p := range points {
		counts[p.Kind]++
		ks, gaps, tb := "-", "-", "-"
		if p.Kind == ArrivalPoisson {
			ks, gaps = fmt.Sprintf("%.4f", p.KS), fmt.Sprintf("%d", p.Gaps)
		}
		if p.Kind == ArrivalTrace {
			tb = fmt.Sprintf("%d", p.TraceBytes)
		}
		fmt.Fprintf(&b, "%-18s %-8s %8d  %-13s %6s %8s %12s\n",
			p.Name, p.Kind, p.Released, strings.Join(p.Modes, "+"), gaps, ks, tb)
	}
	fmt.Fprintf(&b, "%d scenarios verified (%d poisson, %d mmpp, %d trace), 0 invariant violations, KS and re-encode contracts held\n",
		len(points), counts[ArrivalPoisson], counts[ArrivalMMPP], counts[ArrivalTrace])
	return b.String()
}

// The "x15" registry entry is registered from experiments.go's init,
// keeping the artefact order cmd/rtexp has always printed.
