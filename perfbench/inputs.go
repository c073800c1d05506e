package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/analysis"
	"repro/internal/taskset"
	"repro/internal/verify/gen"
	"repro/internal/vtime"
	"repro/sim/scenario"
)

// Input sizes. They fix how much work one input carries, never how
// many inputs a run uses: that follows from --seconds.
const (
	// hitGenDocs is the number of seeded gen.Scenario documents served
	// beside the committed testdata scenarios on serve_hit.
	hitGenDocs = 24
	// batchJobs is the number of jobs each batch_long scenario releases
	// (its horizon is sized to it).
	batchJobs = 50000
	// hashedMissDocs is how many serve_miss documents the printed input
	// hash covers (the sequence itself is unbounded).
	hashedMissDocs = 1024
)

// scenarioDir holds the committed example scenarios, relative to the
// repository root the benchmark runs from.
const scenarioDir = "testdata/scenarios"

// seedStream derives an independent generator seed per input family,
// so changing one family never shifts another's draws.
func seedStream(seed uint64, family string) uint64 {
	h := sha256.Sum256([]byte(fmt.Sprintf("perfbench/%s/%d", family, seed)))
	var v uint64
	for _, b := range h[:8] {
		v = v<<8 | uint64(b)
	}
	return v
}

// marshal encodes a generated scenario canonically, the way a client
// that builds documents programmatically would send it.
func marshal(sc scenario.Scenario) ([]byte, error) {
	b, err := scenario.Marshal(&sc)
	if err != nil {
		return nil, fmt.Errorf("encoding %s: %w", sc.Name, err)
	}
	return b, nil
}

// hitBodies is serve_hit's input: every committed testdata scenario,
// byte for byte, followed by hitGenDocs seeded gen.Scenario documents.
func hitBodies(seed uint64) ([][]byte, error) {
	files, err := filepath.Glob(filepath.Join(scenarioDir, "*.json"))
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no scenarios under %s: run from the repository root", scenarioDir)
	}
	sort.Strings(files)
	var bodies [][]byte
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		sc, err := scenario.Decode(bytes.NewReader(b))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		if sc.HasPathSource() {
			continue // the service rejects path-referenced traces
		}
		bodies = append(bodies, b)
	}
	base := seedStream(seed, "hit")
	for i := 0; i < hitGenDocs; i++ {
		b, err := marshal(gen.Scenario(base + uint64(i)))
		if err != nil {
			return nil, err
		}
		bodies = append(bodies, b)
	}
	return bodies, nil
}

// extendMiss grows serve_miss's input pool to n documents of the
// seed's unbounded sequence. Every document is distinct (gen names
// each after its own seed), so every request is a cache miss.
func extendMiss(seed uint64, pool [][]byte, n int) ([][]byte, error) {
	if n <= len(pool) {
		return pool, nil
	}
	base := seedStream(seed, "miss")
	from := len(pool)
	ext := make([][]byte, n-from)
	err := parallel(len(ext), func(i int) error {
		var err error
		ext[i], err = marshal(gen.Scenario(base + uint64(from+i)))
		return err
	})
	return append(pool, ext...), err
}

// batchList derives batch_long's serial scenario list from the seed.
// The first half are admitted uniprocessor fixed-priority systems with
// detectors (stop, equitable, system, stop) and a recurring overrun:
// they run core → detect → engine → metrics.Accumulator. The second
// half are global multiprocessor systems (edf and fixed-priority on 4
// and 8 cores) with a recurring overrun: they run the bare engine's
// global dispatcher. Every scenario streams its metrics and carries a
// fault, which keeps it ineligible for fast-forward, and its horizon
// is sized so it releases about batchJobs jobs.
func batchList(seed uint64) ([]scenario.Scenario, error) {
	r := taskset.NewRand(seedStream(seed, "batch"))
	var list []scenario.Scenario
	for i, tr := range []string{"stop", "equitable", "system", "stop"} {
		set, err := feasibleSet(r, 8, 0.55+0.10*r.Float64())
		if err != nil {
			return nil, err
		}
		sc := batchScenario(fmt.Sprintf("batch-%d-uni-%s", i, tr), set, r, 1)
		sc.Treatment = tr
		list = append(list, sc)
	}
	for i, mc := range []struct {
		cpus   int
		policy string
	}{{4, "edf"}, {4, "fixed-priority"}, {8, "edf"}, {8, "fixed-priority"}} {
		g := generator(r.Uint64())
		set, err := g.Generate(4*mc.cpus, 0.6*float64(mc.cpus))
		if err != nil {
			return nil, err
		}
		sc := batchScenario(fmt.Sprintf("batch-%d-global%d-%s", 4+i, mc.cpus, mc.policy), set, r, mc.cpus)
		sc.Policy = mc.policy
		list = append(list, sc)
	}
	for i := range list {
		if err := list[i].Validate(); err != nil {
			return nil, fmt.Errorf("%s: %w", list[i].Name, err)
		}
	}
	return list, nil
}

func generator(seed uint64) *taskset.Generator {
	g := taskset.NewGenerator(seed)
	g.PeriodMin = 10 * vtime.Millisecond
	g.PeriodMax = 100 * vtime.Millisecond
	return g
}

// feasibleSet draws task sets until one passes the exact response-time
// admission test.
func feasibleSet(r *taskset.Rand, n int, util float64) (*taskset.Set, error) {
	for attempt := 0; attempt < 64; attempt++ {
		s, err := generator(r.Uint64()).Generate(n, util)
		if err != nil {
			return nil, err
		}
		if rep, err := analysis.Feasible(s); err == nil && rep.Feasible {
			return s, nil
		}
	}
	return nil, fmt.Errorf("no feasible %d-task set at utilization %.2f", n, util)
}

// batchScenario wraps a task set into a streamed scenario with one
// recurring overrun (every fourth job of a drawn task runs 50% long)
// and a horizon that releases about batchJobs jobs.
func batchScenario(name string, set *taskset.Set, r *taskset.Rand, cpus int) scenario.Scenario {
	sc := scenario.Scenario{
		Name:    name,
		Collect: &scenario.Collect{Mode: scenario.CollectStream},
		Seed:    r.Uint64(),
	}
	if cpus > 1 {
		sc.CPUs = cpus
	}
	var rate float64 // jobs per second
	for _, t := range set.Tasks {
		sc.Tasks = append(sc.Tasks, scenario.FromTask(t))
		rate += float64(vtime.Second) / float64(t.Period)
	}
	victim := set.Tasks[r.Intn(len(set.Tasks))]
	sc.Faults = []scenario.Fault{{
		Task:  victim.Name,
		Kind:  scenario.FaultOverrunEvery,
		Every: 4,
		Extra: scenario.Duration((victim.Cost / 2).Ceil(vtime.Millisecond)),
	}}
	sc.Horizon = scenario.Duration(vtime.Millis(int64(math.Ceil(batchJobs / rate * 1000))))
	return sc
}

// inputHash is the SHA-256 of the concatenated input documents, each
// prefixed by its length: equal hashes mean byte-identical inputs.
func inputHash(docs [][]byte) string {
	h := sha256.New()
	for _, d := range docs {
		fmt.Fprintf(h, "%d\n", len(d))
		h.Write(d)
	}
	return hex.EncodeToString(h.Sum(nil))
}
