package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/verify"
)

func TestCheckServed(t *testing.T) {
	want := expected{digest: "sha256:ab", report: []byte("task t1 ok\n")}
	good := served{status: http.StatusOK, body: []byte("task t1 ok\n"), digest: "sha256:ab", cache: "hit"}
	if err := checkServed(good, want, "hit"); err != nil {
		t.Fatalf("correct response rejected: %v", err)
	}
	corrupt := func(f func(*served)) served {
		s := good
		s.body = append([]byte(nil), good.body...)
		f(&s)
		return s
	}
	for name, got := range map[string]served{
		"corrupted body":  corrupt(func(s *served) { s.body[5] ^= 1 }),
		"truncated body":  corrupt(func(s *served) { s.body = s.body[:4] }),
		"wrong X-Cache":   corrupt(func(s *served) { s.cache = "miss" }),
		"missing X-Cache": corrupt(func(s *served) { s.cache = "" }),
		"wrong digest":    corrupt(func(s *served) { s.digest = "sha256:cd" }),
		"throttled":       corrupt(func(s *served) { s.status = http.StatusTooManyRequests }),
		"transport error": {err: errors.New("connection reset")},
	} {
		if err := checkServed(got, want, "hit"); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestCheckBatch(t *testing.T) {
	const report = "t1 45 44\n"
	if err := checkBatch(report, report, nil); err != nil {
		t.Fatalf("equal reports rejected: %v", err)
	}
	if err := checkBatch("t1 45 43\n", report, nil); err == nil {
		t.Error("differing report accepted")
	}
	// The rerun's error as sim.System.Run wraps an oracle failure.
	violation := fmt.Errorf("core: invariant oracle: %w", &verify.Error{Total: 1})
	err := checkBatch(report, "", violation)
	if err == nil || !strings.Contains(err.Error(), "oracle violation") {
		t.Errorf("oracle violation: got %v", err)
	}
	if err := checkBatch(report, "", errors.New("admission rejected")); err == nil {
		t.Error("failed rerun accepted")
	}
}

func TestSelfTimes(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []Span{
		{ID: 1, Req: 1, Name: "root", Start: ms(0), End: ms(100)},
		// Overlapping children cover [10, 50] once: 40 ms.
		{ID: 2, Parent: 1, Req: 1, Name: "a", Start: ms(10), End: ms(30)},
		{ID: 3, Parent: 1, Req: 1, Name: "b", Start: ms(20), End: ms(50)},
		// A child outliving its parent counts only inside it: 10 ms.
		{ID: 4, Parent: 1, Req: 1, Name: "c", Start: ms(90), End: ms(120)},
		// A grandchild reduces its parent's self time, not the root's.
		{ID: 5, Parent: 3, Req: 1, Name: "d", Start: ms(25), End: ms(35)},
		// A span with no children keeps its whole duration.
		{ID: 6, Req: 2, Name: "root", Start: ms(200), End: ms(207)},
	}
	want := map[int64]time.Duration{1: ms(50), 2: ms(20), 3: ms(20), 4: ms(30), 5: ms(10), 6: ms(7)}
	got := SelfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("span %d: self %v, want %v", id, got[id], w)
		}
	}
	by := ByName(spans)
	if st := by["root"]; st.n != 2 || st.self != ms(57) || st.meanSelfUS() != 28500 {
		t.Errorf("root aggregate: n=%d self=%v mean=%gus", st.n, st.self, st.meanSelfUS())
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if m := median(xs); m != 2.5 {
		t.Errorf("median %g, want 2.5", m)
	}
	if q := quantile(xs, 1); q != 4 {
		t.Errorf("max %g, want 4", q)
	}
	if xs[0] != 4 {
		t.Error("quantile sorted its input in place")
	}
}

func TestInputsAreSeeded(t *testing.T) {
	t.Chdir("..")
	hash := func(seed uint64) string {
		bodies, err := hitBodies(seed)
		if err != nil {
			t.Fatal(err)
		}
		list, err := batchList(seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, sc := range list {
			b, err := marshal(sc)
			if err != nil {
				t.Fatal(err)
			}
			bodies = append(bodies, b)
		}
		miss, err := extendMiss(seed, nil, 16)
		if err != nil {
			t.Fatal(err)
		}
		return inputHash(append(bodies, miss...))
	}
	if hash(7) != hash(7) {
		t.Error("the same seed gave different inputs")
	}
	if hash(7) == hash(8) {
		t.Error("different seeds gave the same inputs")
	}
}

// TestServedRoundTrip drives a real in-process server: a primed
// document comes back as a hit that passes the check, and the same
// response with one byte flipped fails it.
func TestServedRoundTrip(t *testing.T) {
	t.Chdir("..")
	bodies, err := hitBodies(1)
	if err != nil {
		t.Fatal(err)
	}
	body := bodies[0]
	want, err := localTruth(body)
	if err != nil {
		t.Fatal(err)
	}
	s, primed, err := startServer([][]byte{body})
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	if err := checkServed(primed[0], want, "miss"); err != nil {
		t.Fatalf("priming response: %v", err)
	}
	c := newClient()
	defer c.close()
	got := c.simulate(s.url, body, 0)
	if err := checkServed(got, want, "hit"); err != nil {
		t.Fatalf("hit response: %v", err)
	}
	got.body[len(got.body)/2] ^= 0x20
	if err := checkServed(got, want, "hit"); err == nil {
		t.Fatal("corrupted hit response accepted")
	}
}

// TestMetricTablesMatchBenchmarkJSON pins the reported metric names
// and units to BENCHMARK.json, and its workloads to the code that runs them.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type spec struct{ Name, Unit string }
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []spec `json:"end_to_end"`
		PerLayer  []spec `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s is not implemented", w.Name)
		}
	}
	same := func(what string, json []spec, code []metricSpec) {
		if len(json) != len(code) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the code %d", what, len(json), len(code))
			return
		}
		for i := range code {
			if json[i].Name != code[i].name || json[i].Unit != code[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s/%s, code %s/%s", what, i, json[i].Name, json[i].Unit, code[i].name, code[i].unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
}
