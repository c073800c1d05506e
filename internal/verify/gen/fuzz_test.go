package gen_test

import (
	"testing"

	"repro/sim"
)

// FuzzScenario is the native fuzz target over the scenario space: any
// seed must derive a scenario whose run satisfies every scheduling
// axiom in every legal collection mode, with the streamed report
// equal to the retained one (the x11 check), and a fast-forwardable
// scenario whose jump reproduces its full run (the x14 check). A
// failing seed is shrunk to a minimal reproducer so the report is
// actionable.
//
// CI runs this as a short smoke on every PR and a longer non-blocking
// pass nightly: go test -fuzz=FuzzScenario ./internal/verify/gen
func FuzzScenario(f *testing.F) {
	for seed := uint64(0); seed < 8; seed++ {
		f.Add(seed)
	}
	// Multiprocessor corpus: the smallest seeds drawing each core
	// count (49→2, 53→4, 139→8 global; 38/58/25 partitioned), so the
	// fuzzer starts from every placement the codec can express.
	for _, seed := range []uint64{49, 53, 139, 38, 58, 25} {
		f.Add(seed)
	}
	// Fast-forward corpus: seeds whose FastForwardable derivation
	// covers both policies, multicore and long offsets, so the
	// fast-forward leg starts from every eligible shape.
	for _, seed := range []uint64{3, 5, 11, 17} {
		f.Add(seed)
	}
	// Arrival-source corpus: the smallest seeds drawing each source
	// kind (7→poisson, 41→mmpp, 36→trace), so the fuzzer starts from
	// every open-arrival release law the codec can express.
	for _, seed := range []uint64{7, 41, 36} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		// Fast-forward leg: the seed's FastForwardable derivation must
		// reproduce its oracle-verified full run across the analytic
		// jump (counts exactly, percentiles within the widened bound).
		if err := sim.FastForwardCheck(seed); err != nil {
			t.Fatalf("fast-forward differential: %v", err)
		}
		// Collection-mode leg: x11's per-seed check — the seed's
		// scenario passes the oracle in every legal collection mode and
		// its streamed report matches the retained one. A failure is
		// shrunk to a reproducer under testdata/shrunk.
		if err := sim.DifferentialCheck(seed); err != nil {
			t.Fatalf("differential: %v", err)
		}
	})
}

// TestFuzzSeedsSmoke keeps the fuzz body exercised under plain `go
// test` (fuzzing only runs with -fuzz): a deterministic sweep over a
// small seed range.
func TestFuzzSeedsSmoke(t *testing.T) {
	seeds := make([]uint64, 0, 30)
	for seed := uint64(0); seed < 24; seed++ {
		seeds = append(seeds, seed)
	}
	// The multiprocessor corpus seeds (see FuzzScenario).
	seeds = append(seeds, 49, 53, 139, 38, 58, 25)
	// The arrival-source corpus seeds (see FuzzScenario).
	seeds = append(seeds, 7, 41, 36)
	for _, seed := range seeds {
		if err := sim.DifferentialCheck(seed); err != nil {
			t.Errorf("seed %d differential: %v", seed, err)
		}
	}
	// The fast-forward corpus seeds (see FuzzScenario's fast-forward
	// leg); the full x14 sweep covers a wider range.
	for _, seed := range []uint64{3, 5, 11, 17} {
		if err := sim.FastForwardCheck(seed); err != nil {
			t.Errorf("seed %d fast-forward differential: %v", seed, err)
		}
	}
}
