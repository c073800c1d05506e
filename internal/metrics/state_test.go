package metrics

import (
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/trace"
	"repro/internal/vtime"
)

// appendJob streams one released-and-completed job with the given
// response time through the accumulator.
func appendJob(a *Accumulator, task string, q int64, release vtime.Time, resp vtime.Duration) {
	a.Append(trace.Event{At: release, Kind: trace.JobRelease, Task: task, Job: q})
	a.Append(trace.Event{At: release.Add(resp), Kind: trace.JobEnd, Task: task, Job: q})
}

// TestStateRoundTrip: snapshotting a mid-stream accumulator and
// restoring it into a fresh one reproduces the internal state exactly
// — continuing the same event stream through both yields identical
// reports, percentiles included.
func TestStateRoundTrip(t *testing.T) {
	l := buildLog()
	events := l.Events()
	for _, cut := range []int{0, 1, len(events) / 2, len(events) - 1, len(events)} {
		a := NewAccumulator()
		for _, e := range events[:cut] {
			a.Append(e)
		}
		st := a.State()

		// The state survives a JSON round trip (the wire format of the
		// checkpoint and sharding pipelines).
		raw, err := json.Marshal(st)
		if err != nil {
			t.Fatalf("cut %d: marshal: %v", cut, err)
		}
		var decoded AccumulatorState
		if err := json.Unmarshal(raw, &decoded); err != nil {
			t.Fatalf("cut %d: unmarshal: %v", cut, err)
		}

		b := NewAccumulator()
		if err := b.RestoreState(&decoded); err != nil {
			t.Fatalf("cut %d: restore: %v", cut, err)
		}
		for _, e := range events[cut:] {
			a.Append(e)
			b.Append(e)
		}
		diffSummaries(t, a.Report(), b.Report())
		diffPercentiles(t, a.Report(), b.Report())
	}
}

// diffPercentiles fails wherever two streaming reports answer a
// percentile query differently.
func diffPercentiles(t *testing.T, want, got *Report) {
	t.Helper()
	for name := range want.Tasks {
		for _, p := range []float64{1, 25, 50, 75, 90, 95, 99, 100} {
			w, wok := want.ResponsePercentile(name, p)
			g, gok := got.ResponsePercentile(name, p)
			if wok != gok || w != g {
				t.Errorf("%s p%v: got (%v, %v), want (%v, %v)", name, p, g, gok, w, wok)
			}
		}
	}
}

// TestRestoreStateRejects: version mismatches, non-empty targets and
// corrupt snapshots are refused rather than silently blended.
func TestRestoreStateRejects(t *testing.T) {
	a := feed(buildLog())
	st := a.State()

	bad := *st
	bad.Version = AccumulatorStateVersion + 1
	if err := NewAccumulator().RestoreState(&bad); err == nil {
		t.Error("version mismatch accepted")
	}
	if err := a.RestoreState(st); err == nil {
		t.Error("restore into a non-empty accumulator accepted")
	}

	// The same live job listed twice would resume with a job missing.
	dup := *st
	dup.Live = []LiveJobState{
		{Task: "tau1", Q: 7, Release: 1400},
		{Task: "tau2", Q: 7, Release: 1400},
		{Task: "tau1", Q: 7, Release: 1400, Missed: true},
	}
	err := NewAccumulator().RestoreState(&dup)
	if err == nil {
		t.Fatal("duplicate live job accepted")
	}
	if !strings.Contains(err.Error(), "tau1#7") {
		t.Errorf("error %q does not name the duplicated job tau1#7", err)
	}
}

// TestStateFromReportRoundTrip: a worker serializing its final
// streaming report and the parent rebuilding it agree field for field
// and percentile for percentile — the contract the process-sharded
// sweep leans on.
func TestStateFromReportRoundTrip(t *testing.T) {
	rep := feed(buildLog()).Report()
	st, err := StateFromReport(rep)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ReportFromState(st)
	if err != nil {
		t.Fatal(err)
	}
	diffSummaries(t, rep, back)
	diffPercentiles(t, rep, back)
	if !back.Streaming() {
		t.Error("rebuilt report is not streaming")
	}
}

// TestStateFromReportRejectsRetained: a retained (sort-based) report
// has no sketches to ship.
func TestStateFromReportRejectsRetained(t *testing.T) {
	if _, err := StateFromReport(Analyze(buildLog())); err == nil {
		t.Error("retained report accepted")
	}
}

// TestAbsorbMatchesUnsharded: feeding disjoint halves of a stream into
// two accumulators and absorbing both states into a third reproduces
// the aggregate counters and moments of an unsharded run exactly, with
// percentiles within the merged (summed) rank-error bound.
func TestAbsorbMatchesUnsharded(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var all []vtime.Duration
	whole, shardA, shardB := NewAccumulator(), NewAccumulator(), NewAccumulator()
	accs := []*Accumulator{shardA, shardB}
	for q := int64(0); q < 4000; q++ {
		resp := vtime.Duration(rng.Int63n(1_000_000))
		all = append(all, resp)
		for _, a := range []*Accumulator{whole, accs[q%2]} {
			appendJob(a, "t1", q, vtime.Time(q)*vtime.Time(vtime.Millisecond), resp)
		}
	}
	agg := NewAccumulator()
	for _, sh := range accs {
		st, err := StateFromReport(sh.Report())
		if err != nil {
			t.Fatal(err)
		}
		if err := agg.Absorb(st); err != nil {
			t.Fatal(err)
		}
	}
	wantRep, gotRep := whole.Report(), agg.Report()
	diffSummaries(t, wantRep, gotRep)

	// Percentiles: the merged sketch honours the widened εa+εb bound.
	sorted := append([]vtime.Duration(nil), all...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for _, p := range []float64{1, 25, 50, 75, 90, 95, 99, 100} {
		got, ok := gotRep.ResponsePercentile("t1", p)
		if !ok {
			t.Fatalf("p%v: no answer", p)
		}
		lo, hi := exactWindow(sorted, p/100, 2*DefaultSketchEpsilon)
		if got < lo || got > hi {
			t.Errorf("p%v: merged=%v outside rank window [%v, %v]", p, got, lo, hi)
		}
	}
}

// TestAbsorbLiveCollision: two shards reporting the same in-flight job
// means they overlapped — an error, not a silent merge — and the
// refused state must leave the accumulator exactly as it was: no
// counter, moment or sketch of the colliding state folded in.
func TestAbsorbLiveCollision(t *testing.T) {
	st := &AccumulatorState{
		Version: AccumulatorStateVersion,
		Epsilon: DefaultSketchEpsilon,
		Live:    []LiveJobState{{Task: "t1", Q: 3, Release: 10}},
	}
	a := NewAccumulator()
	if err := a.Absorb(st); err != nil {
		t.Fatal(err)
	}
	if err := a.Absorb(st); err == nil {
		t.Error("live-job collision accepted")
	}

	// A mid-stream state carries summaries, a sketch and a live job:
	// absorbing it twice collides on the live job.
	events := buildLog().Events()
	mid := feed(logOf(events[:len(events)/2])).State()
	if len(mid.Live) == 0 || len(mid.Tasks) == 0 {
		t.Fatalf("mid-stream state lacks tasks or live jobs: %+v", mid)
	}
	b := NewAccumulator()
	if err := b.Absorb(mid); err != nil {
		t.Fatal(err)
	}
	before := stateJSON(t, b)
	if err := b.Absorb(mid); err == nil {
		t.Error("live-job collision accepted")
	}
	if after := stateJSON(t, b); after != before {
		t.Errorf("failed Absorb changed the accumulator:\nbefore %s\nafter  %s", before, after)
	}

	// A state listing one live job twice collides with itself.
	dup := *mid
	dup.Live = append(append([]LiveJobState(nil), mid.Live...), mid.Live[0])
	c := NewAccumulator()
	if err := c.Absorb(&dup); err == nil {
		t.Error("duplicate live job inside one state accepted")
	}
	if got, want := stateJSON(t, c), stateJSON(t, NewAccumulator()); got != want {
		t.Errorf("failed Absorb changed an empty accumulator: %s", got)
	}
}

// stateJSON is the canonical wire encoding of a's state.
func stateJSON(t *testing.T, a *Accumulator) string {
	t.Helper()
	raw, err := json.Marshal(a.State())
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// logOf wraps events in a trace log.
func logOf(events []trace.Event) *trace.Log {
	l := trace.NewLog(len(events))
	for _, e := range events {
		l.Append(e)
	}
	return l
}

// TestSketchMergeBoundProperty: across random splits of several
// distributions, querying the merged sketch stays within the summed
// εa+εb rank window of the exact sorted union, and the merged sketch
// reports that widened bound itself.
func TestSketchMergeBoundProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	gens := map[string]func() vtime.Duration{
		"uniform": func() vtime.Duration { return vtime.Duration(rng.Int63n(1_000_000)) },
		"exp":     func() vtime.Duration { return vtime.Duration(rng.ExpFloat64() * 50_000) },
		"bimodal": func() vtime.Duration { return vtime.Duration(rng.Int63n(1000) + rng.Int63n(2)*900_000) },
		"sorted":  func() vtime.Duration { return vtime.Duration(rng.Int63n(100)) },
	}
	for name, gen := range gens {
		for _, n := range []int{10, 500, 5000} {
			a, b := NewSketch(DefaultSketchEpsilon), NewSketch(DefaultSketchEpsilon)
			var values []vtime.Duration
			for i := 0; i < n; i++ {
				v := gen()
				values = append(values, v)
				if rng.Intn(2) == 0 {
					a.Add(v)
				} else {
					b.Add(v)
				}
			}
			a.Merge(b)
			if a.N() != int64(n) {
				t.Fatalf("%s n=%d: merged N=%d", name, n, a.N())
			}
			wantEps := 2 * DefaultSketchEpsilon
			if math.Abs(a.Epsilon()-wantEps) > 1e-12 {
				t.Fatalf("%s n=%d: merged eps=%v, want %v", name, n, a.Epsilon(), wantEps)
			}
			checkBound(t, name, values, a)
		}
	}
}

// TestSketchMergeEmpty: merging with or into an empty sketch is the
// identity on the data (no widening for a summary holding nothing).
func TestSketchMergeEmpty(t *testing.T) {
	full := NewSketch(DefaultSketchEpsilon)
	for i := 0; i < 100; i++ {
		full.Add(vtime.Duration(i))
	}
	into := full.Clone()
	into.Merge(NewSketch(DefaultSketchEpsilon))
	if !reflect.DeepEqual(into, full) {
		t.Error("merging an empty sketch changed the receiver")
	}
	empty := NewSketch(DefaultSketchEpsilon)
	empty.Merge(full)
	if empty.N() != full.N() || empty.Epsilon() != full.Epsilon() {
		t.Errorf("empty.Merge(full): n=%d eps=%v, want n=%d eps=%v",
			empty.N(), empty.Epsilon(), full.N(), full.Epsilon())
	}
	v1, _ := empty.Query(0.5)
	v2, _ := full.Query(0.5)
	if v1 != v2 {
		t.Errorf("median after merge into empty: %v, want %v", v1, v2)
	}
}

// TestStateDeterministic: the state encoding is a function of the
// event stream alone. An accumulator fed a stream straight through and
// one split through State/RestoreState at every cut encode byte-equal
// states, and those bytes are pinned, so existing checkpoints resume
// unchanged under the same AccumulatorStateVersion.
func TestStateDeterministic(t *testing.T) {
	for _, tc := range []struct {
		name     string
		events   []trace.Event
		mid, end string // State() JSON after half the stream and after all of it
	}{
		{"buildLog", buildLog().Events(), buildLogMidJSON, buildLogEndJSON},
		{"interleaved", interleavedStream(), interleavedMidJSON, interleavedEndJSON},
	} {
		whole := NewAccumulator()
		for i, e := range tc.events {
			if i == len(tc.events)/2 {
				if got := stateJSON(t, whole); got != tc.mid {
					t.Errorf("%s: mid-stream state\ngot  %s\nwant %s", tc.name, got, tc.mid)
				}
			}
			whole.Append(e)
		}
		want := stateJSON(t, whole)
		if want != tc.end {
			t.Errorf("%s: final state\ngot  %s\nwant %s", tc.name, want, tc.end)
		}
		for cut := 0; cut <= len(tc.events); cut++ {
			a := NewAccumulator()
			for _, e := range tc.events[:cut] {
				a.Append(e)
			}
			var st AccumulatorState
			if err := json.Unmarshal([]byte(stateJSON(t, a)), &st); err != nil {
				t.Fatal(err)
			}
			b := NewAccumulator()
			if err := b.RestoreState(&st); err != nil {
				t.Fatalf("%s cut %d: %v", tc.name, cut, err)
			}
			for _, e := range tc.events[cut:] {
				b.Append(e)
			}
			if got := stateJSON(t, b); got != want {
				t.Errorf("%s: split at %d diverged\ngot  %s\nwant %s", tc.name, cut, got, want)
			}
		}
	}
}

// interleavedStream is buildLog's companion for ordering checks: three
// tasks first seen in reverse name order, backlogs of live jobs that
// terminate out of release order, misses, detections, stops and a
// re-sighted terminated job.
func interleavedStream() []trace.Event {
	var es []trace.Event
	for q := int64(0); q < 8; q++ {
		at := q * 100
		es = append(es,
			ev(at, trace.JobRelease, "zeta", q),
			ev(at, trace.JobRelease, "mu", q),
			ev(at+1, trace.JobRelease, "alpha", q),
			ev(at+2, trace.JobBegin, "alpha", q))
		if q > 0 && q%2 == 0 {
			// zeta finishes its jobs in pairs, newest first.
			es = append(es, ev(at+5, trace.JobEnd, "zeta", q-1), ev(at+6, trace.JobEnd, "zeta", q-2))
		}
		if q%2 == 1 {
			es = append(es,
				ev(at+10, trace.DeadlineMiss, "mu", q-1),
				ev(at+11, trace.FaultDetected, "mu", q),
				ev(at+12, trace.JobStopped, "mu", q-1),
				ev(at+40, trace.JobEnd, "mu", q))
		}
		es = append(es, ev(at+3+q, trace.JobEnd, "alpha", q))
	}
	// An event after a job's terminal one falls outside the engine's
	// event order; the accumulator re-opens the job as a new live one.
	return append(es, ev(900, trace.FaultDetected, "alpha", 2))
}

// Pinned encodings of the two streams' states: changing them breaks
// existing checkpoints and needs an AccumulatorStateVersion bump.
const (
	buildLogMidJSON    = `{"version":1,"epsilon":0.01,"tasks":[{"task":"tau1","released":2,"finished":1,"min_response":29000000,"max_response":29000000,"resp_sum":29000000,"resp_n":1,"sketch":{"epsilon":0.01,"n":1,"tuples":[[29000000,1,0]]}}],"live":[{"task":"tau1","q":1,"release":200000000}]}`
	buildLogEndJSON    = `{"version":1,"epsilon":0.01,"tasks":[{"task":"tau1","released":2,"finished":1,"stopped":1,"failed":1,"detected":1,"min_response":29000000,"max_response":62000000,"resp_sum":91000000,"resp_n":2,"sketch":{"epsilon":0.01,"n":1,"tuples":[[29000000,1,0]]}},{"task":"tau2","released":1,"finished":1,"missed":1,"failed":1,"min_response":127000000,"max_response":127000000,"resp_sum":127000000,"resp_n":1}]}`
	interleavedMidJSON = `{"version":1,"epsilon":0.01,"tasks":[{"task":"alpha","released":4,"finished":4,"min_response":2000000,"max_response":5000000,"resp_sum":14000000,"resp_n":4,"sketch":{"epsilon":0.01,"n":4,"tuples":[[2000000,1,0],[3000000,1,0],[4000000,1,0],[5000000,1,0]]}},{"task":"mu","released":4,"finished":2,"stopped":2,"missed":2,"failed":2,"detected":2,"min_response":40000000,"max_response":112000000,"resp_sum":304000000,"resp_n":4,"sketch":{"epsilon":0.01,"n":2,"tuples":[[40000000,1,0],[40000000,1,0]]}},{"task":"zeta","released":5,"finished":2,"min_response":105000000,"max_response":206000000,"resp_sum":311000000,"resp_n":2,"sketch":{"epsilon":0.01,"n":2,"tuples":[[105000000,1,0],[206000000,1,0]]}}],"live":[{"task":"zeta","q":2,"release":200000000},{"task":"zeta","q":3,"release":300000000},{"task":"zeta","q":4,"release":400000000}]}`
	interleavedEndJSON = `{"version":1,"epsilon":0.01,"tasks":[{"task":"alpha","released":9,"finished":8,"detected":1,"min_response":2000000,"max_response":9000000,"resp_sum":44000000,"resp_n":8,"sketch":{"epsilon":0.01,"n":8,"tuples":[[2000000,1,0],[3000000,1,0],[4000000,1,0],[5000000,1,0],[6000000,1,0],[7000000,1,0],[8000000,1,0],[9000000,1,0]]}},{"task":"mu","released":8,"finished":4,"stopped":4,"missed":4,"failed":4,"detected":4,"min_response":40000000,"max_response":112000000,"resp_sum":608000000,"resp_n":8,"sketch":{"epsilon":0.01,"n":4,"tuples":[[40000000,1,0],[40000000,1,0],[40000000,1,0],[40000000,1,0]]}},{"task":"zeta","released":8,"finished":6,"min_response":105000000,"max_response":206000000,"resp_sum":933000000,"resp_n":6,"sketch":{"epsilon":0.01,"n":6,"tuples":[[105000000,1,0],[105000000,1,0],[105000000,1,0],[206000000,1,0],[206000000,1,0],[206000000,1,0]]}}],"live":[{"task":"alpha","q":2,"release":0,"detected":true},{"task":"zeta","q":6,"release":600000000},{"task":"zeta","q":7,"release":700000000}]}`
)
