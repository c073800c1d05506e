package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/vtime"
	"repro/sim"
	"repro/sim/scenario"
)

func testScenarioJSON(t testing.TB, name string, seed uint64) []byte {
	t.Helper()
	sc := scenario.Scenario{
		Name: name,
		Tasks: []scenario.Task{
			{Name: "tau1", Priority: 2, Period: scenario.Duration(vtime.Millis(10)), Deadline: scenario.Duration(vtime.Millis(10)), Cost: scenario.Duration(vtime.Millis(2))},
			{Name: "tau2", Priority: 1, Period: scenario.Duration(vtime.Millis(20)), Deadline: scenario.Duration(vtime.Millis(20)), Cost: scenario.Duration(vtime.Millis(5))},
		},
		Horizon: scenario.Duration(vtime.Millis(100)),
		Seed:    seed,
	}
	b, err := scenario.Marshal(&sc)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// pathSourceJSON is a valid scenario whose trace arrival reads a file
// path, which the service must refuse.
func pathSourceJSON(t testing.TB) []byte {
	t.Helper()
	sc := scenario.Scenario{
		Name: "path-trace",
		Tasks: []scenario.Task{
			{Name: "replay", Priority: 1, Period: scenario.Duration(vtime.Millis(20)), Deadline: scenario.Duration(vtime.Millis(20)), Cost: scenario.Duration(vtime.Millis(2))},
		},
		Arrivals:      []scenario.Arrival{{Task: "replay", Kind: scenario.ArrivalTrace, Path: "does-not-matter.jsonl"}},
		Horizon:       scenario.Duration(vtime.Millis(100)),
		SkipAdmission: true,
	}
	b, err := scenario.Marshal(&sc)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// infeasibleJSON is a valid scenario that admission control refuses,
// so its run fails.
func infeasibleJSON(t testing.TB) []byte {
	t.Helper()
	sc := scenario.Scenario{
		Name: "infeasible",
		Tasks: []scenario.Task{
			{Name: "tau1", Priority: 2, Period: scenario.Duration(vtime.Millis(10)), Deadline: scenario.Duration(vtime.Millis(10)), Cost: scenario.Duration(vtime.Millis(6))},
			{Name: "tau2", Priority: 1, Period: scenario.Duration(vtime.Millis(10)), Deadline: scenario.Duration(vtime.Millis(10)), Cost: scenario.Duration(vtime.Millis(6))},
		},
		Horizon: scenario.Duration(vtime.Millis(100)),
	}
	b, err := scenario.Marshal(&sc)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func post(t testing.TB, h http.Handler, path string, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("POST", path, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// TestServedReportMatchesLocalRun pins the service's core contract
// for every committed example scenario: the served report is
// byte-equal to the summary a local `rtrun -scenario` run prints
// (rtrun prints RunResult.Summary() verbatim — the CLI-level twin of
// this pin is scripts/serve_smoke.sh, which cmp's against the real
// binary). The repeat POST must be a cache hit with an identical
// body.
func TestServedReportMatchesLocalRun(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "scenarios", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no example scenarios found")
	}
	s := New(Config{Workers: 2})
	defer s.Close()
	for _, path := range files {
		t.Run(filepath.Base(path), func(t *testing.T) {
			sys, err := sim.Load(path)
			if err != nil {
				t.Fatal(err)
			}
			res, err := sys.Run()
			if err != nil {
				t.Fatal(err)
			}
			want := res.Summary()

			raw, err := scenario.DecodeFile(path)
			if err != nil {
				t.Fatal(err)
			}
			body, err := scenario.Marshal(raw)
			if err != nil {
				t.Fatal(err)
			}

			rec := post(t, s, "/v1/simulate?format=report", body)
			if rec.Code != http.StatusOK {
				t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
			}
			if got := rec.Body.String(); got != want {
				t.Errorf("served report differs from local run:\n--- served ---\n%s\n--- local ---\n%s", got, want)
			}
			if cs := rec.Header().Get("X-Cache"); cs != "miss" {
				t.Errorf("first POST X-Cache = %q, want miss", cs)
			}

			rec2 := post(t, s, "/v1/simulate?format=report", body)
			if rec2.Code != http.StatusOK {
				t.Fatalf("repeat status %d", rec2.Code)
			}
			if cs := rec2.Header().Get("X-Cache"); cs != "hit" {
				t.Errorf("repeat POST X-Cache = %q, want hit", cs)
			}
			if !bytes.Equal(rec2.Body.Bytes(), rec.Body.Bytes()) {
				t.Error("cache hit returned different bytes than the original response")
			}

			// The JSON envelope is deterministic too, and carries the
			// pinned digest.
			recJ := post(t, s, "/v1/simulate", body)
			recJ2 := post(t, s, "/v1/simulate", body)
			if !bytes.Equal(recJ.Body.Bytes(), recJ2.Body.Bytes()) {
				t.Error("envelope bytes differ between miss-path and hit-path responses")
			}
			var env envelope
			if err := json.Unmarshal(recJ.Body.Bytes(), &env); err != nil {
				t.Fatalf("envelope: %v", err)
			}
			if env.Report != want {
				t.Error("envelope report differs from local run")
			}
			wantDigest, err := raw.Digest()
			if err != nil {
				t.Fatal(err)
			}
			if env.Digest != wantDigest {
				t.Errorf("envelope digest %s, want %s", env.Digest, wantDigest)
			}
		})
	}
}

// TestSingleflightConcurrentIdenticalPosts pins the dedup guarantee
// with a gated run function: N identical in-flight POSTs cost exactly
// one simulation, every response is 200 with identical bytes, and
// exactly one response is the cache miss.
func TestSingleflightConcurrentIdenticalPosts(t *testing.T) {
	const n = 16
	s := New(Config{Workers: 2, QueueDepth: 4})
	defer s.Close()

	var runs atomic.Int64
	release := make(chan struct{})
	s.run = func(ctx context.Context, sc *scenario.Scenario, progress func(Progress)) (*result, error) {
		runs.Add(1)
		<-release
		return &result{report: []byte("stub report\n"), successRatio: 1}, nil
	}

	body := testScenarioJSON(t, "singleflight", 1)
	recs := make([]*httptest.ResponseRecorder, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			recs[i] = post(t, s, "/v1/simulate", body)
		}(i)
	}
	// Wait until every request has passed the cache lookup (the miss
	// plus n-1 joined hits), then let the single simulation finish.
	deadline := time.Now().Add(10 * time.Second)
	for s.met.hits.Load()+s.met.misses.Load() < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d requests reached the cache", s.met.hits.Load()+s.met.misses.Load(), n)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if got := runs.Load(); got != 1 {
		t.Errorf("%d identical concurrent POSTs ran %d simulations, want exactly 1", n, got)
	}
	misses := 0
	for i, rec := range recs {
		if rec.Code != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, rec.Code, rec.Body.String())
		}
		if !bytes.Equal(rec.Body.Bytes(), recs[0].Body.Bytes()) {
			t.Errorf("request %d returned different bytes", i)
		}
		if rec.Header().Get("X-Cache") == "miss" {
			misses++
		}
	}
	if misses != 1 {
		t.Errorf("%d responses claim the miss, want exactly 1", misses)
	}

	// A straggler after completion is a plain cache hit: same bytes,
	// still one simulation.
	late := post(t, s, "/v1/simulate", body)
	if late.Code != http.StatusOK || late.Header().Get("X-Cache") != "hit" {
		t.Errorf("late POST: status %d X-Cache %q", late.Code, late.Header().Get("X-Cache"))
	}
	if !bytes.Equal(late.Body.Bytes(), recs[0].Body.Bytes()) {
		t.Error("late cache hit returned different bytes")
	}
	if got := runs.Load(); got != 1 {
		t.Errorf("late hit re-ran the simulation (%d runs)", got)
	}
}

// TestSingleflightRealRun repeats the dedup pin without stubbing: the
// real simulation function wrapped in a counter. Timing no longer
// forces overlap, but content addressing makes the count exact anyway:
// whether requests overlap or arrive after completion, one simulation
// serves all of them.
func TestSingleflightRealRun(t *testing.T) {
	const n = 8
	s := New(Config{Workers: 2, QueueDepth: 4})
	defer s.Close()
	var runs atomic.Int64
	real := s.run
	s.run = func(ctx context.Context, sc *scenario.Scenario, progress func(Progress)) (*result, error) {
		runs.Add(1)
		return real(ctx, sc, progress)
	}
	body := testScenarioJSON(t, "singleflight-real", 2)
	var wg sync.WaitGroup
	wg.Add(n)
	codes := make([]int, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			codes[i] = post(t, s, "/v1/simulate", body).Code
		}(i)
	}
	wg.Wait()
	for i, c := range codes {
		if c != http.StatusOK {
			t.Errorf("request %d: status %d", i, c)
		}
	}
	if got := runs.Load(); got != 1 {
		t.Errorf("ran %d simulations for %d identical POSTs, want 1", got, n)
	}
}

// TestQueueFullSheds pins the admission layer: with one worker busy
// and the single queue slot taken, a third distinct scenario gets 429
// + Retry-After instead of queueing, /metrics reflects the shed, and
// the admitted work still completes.
func TestQueueFullSheds(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 1, RetryAfter: 2 * time.Second})
	defer s.Close()

	release := make(chan struct{})
	started := make(chan struct{}, 8)
	s.run = func(ctx context.Context, sc *scenario.Scenario, progress func(Progress)) (*result, error) {
		started <- struct{}{}
		<-release
		return &result{report: []byte(sc.Name + "\n"), successRatio: 1}, nil
	}

	results := make(chan *httptest.ResponseRecorder, 2)
	go func() { results <- post(t, s, "/v1/simulate", testScenarioJSON(t, "a", 1)) }()
	<-started // the worker owns scenario a; queue empty
	go func() { results <- post(t, s, "/v1/simulate", testScenarioJSON(t, "b", 2)) }()
	// Wait for b to occupy the queue slot.
	deadline := time.Now().Add(10 * time.Second)
	for s.pool.QueueDepth() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("second scenario never reached the queue")
		}
		time.Sleep(time.Millisecond)
	}

	rec := post(t, s, "/v1/simulate", testScenarioJSON(t, "c", 3))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("saturated POST: status %d, want 429", rec.Code)
	}
	if ra := rec.Header().Get("Retry-After"); ra != "2" {
		t.Errorf("Retry-After = %q, want \"2\"", ra)
	}
	if snap := s.Metrics(); snap.Throttled == 0 {
		t.Error("metrics do not reflect the shed request")
	}

	close(release)
	for i := 0; i < 2; i++ {
		if rec := <-results; rec.Code != http.StatusOK {
			t.Errorf("admitted request finished with status %d", rec.Code)
		}
	}

	// Capacity freed: the shed scenario is accepted on retry (its
	// failed entry was not cached).
	rec = post(t, s, "/v1/simulate", testScenarioJSON(t, "c", 3))
	if rec.Code != http.StatusOK {
		t.Errorf("retry after drain: status %d, want 200", rec.Code)
	}
}

// TestThrottleRetryAfterCeiling pins the Retry-After arithmetic: the
// header has whole-second resolution, so sub-second configurations
// must ceil to "1" — the old Round()-based computation emitted
// "Retry-After: 0" for anything under 500ms, inviting an immediate
// retry storm against a saturated server.
func TestThrottleRetryAfterCeiling(t *testing.T) {
	cases := []struct {
		cfg  time.Duration
		want string
	}{
		{200 * time.Millisecond, "1"}, // pre-fix: "0"
		{499 * time.Millisecond, "1"}, // pre-fix: "0"
		{999 * time.Millisecond, "1"},
		{time.Second, "1"},
		{1001 * time.Millisecond, "2"}, // ceiling, not rounding
		{2 * time.Second, "2"},         // the TestQueueFullSheds pin
		{0, "1"},                       // config default (1s)
	}
	for _, c := range cases {
		s := New(Config{Workers: 1, RetryAfter: c.cfg})
		rec := httptest.NewRecorder()
		s.throttle(rec)
		if got := rec.Header().Get("Retry-After"); got != c.want {
			t.Errorf("RetryAfter %v: header %q, want %q", c.cfg, got, c.want)
		}
		if rec.Code != http.StatusTooManyRequests {
			t.Errorf("RetryAfter %v: status %d, want 429", c.cfg, rec.Code)
		}
		s.Close()
	}
}

// TestPathSourceRejected pins the cache-safety rule: a scenario whose
// trace arrival reads a file path is refused with 400 — the digest
// does not cover the file's content, so two different traces behind
// one path would alias a single cache entry.
func TestPathSourceRejected(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	rec := post(t, s, "/v1/simulate", pathSourceJSON(t))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("path-source POST: status %d, want 400", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "content-addressable") {
		t.Errorf("error body %q does not explain the path rejection", rec.Body.String())
	}
	if snap := s.Metrics(); snap.BadRequests == 0 {
		t.Error("metrics do not count the rejected request")
	}
}

// TestSSEProgress pins the streaming contract: ?stream=sse yields a
// queued event, at least one progress observation of the virtual
// clock, and a result event whose envelope equals the blocking
// response.
func TestSSEProgress(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	body := testScenarioJSON(t, "sse", 4)

	rec := post(t, s, "/v1/simulate?stream=sse", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type %q", ct)
	}
	events := parseSSE(t, rec.Body.String())
	if len(events["queued"]) != 1 {
		t.Errorf("want exactly 1 queued event, got %d", len(events["queued"]))
	}
	if len(events["progress"]) == 0 {
		t.Error("no progress events streamed")
	}
	for _, raw := range events["progress"] {
		var p Progress
		if err := json.Unmarshal([]byte(raw), &p); err != nil {
			t.Fatalf("progress event: %v", err)
		}
		if p.HorizonMS != 100 || p.AtMS < 0 || p.AtMS > p.HorizonMS {
			t.Errorf("implausible progress %+v", p)
		}
	}
	if len(events["result"]) != 1 {
		t.Fatalf("want exactly 1 result event, got %d (errors: %v)", len(events["result"]), events["error"])
	}

	blocking := post(t, s, "/v1/simulate", body)
	if got, want := strings.TrimSpace(events["result"][0]), strings.TrimSpace(blocking.Body.String()); got != want {
		t.Errorf("SSE result envelope differs from blocking response:\n%s\nvs\n%s", got, want)
	}
}

func parseSSE(t *testing.T, s string) map[string][]string {
	t.Helper()
	out := map[string][]string{}
	var event string
	for _, line := range strings.Split(s, "\n") {
		if v, ok := strings.CutPrefix(line, "event: "); ok {
			event = v
		} else if v, ok := strings.CutPrefix(line, "data: "); ok {
			if event == "" {
				t.Fatalf("data without event: %q", line)
			}
			out[event] = append(out[event], v)
			event = ""
		}
	}
	return out
}

// TestBadRequests pins the error contract: malformed JSON, unknown
// fields, and invalid scenarios are 400s (counted, never cached,
// never simulated); an infeasible-but-valid scenario is a 422.
func TestBadRequests(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	bodies := map[string]string{
		"malformed":     "{not json",
		"unknown-field": `{"tasks":[],"horizon":"1s","bogus":1}`,
		"no-tasks":      `{"tasks":[],"horizon":"1s"}`,
		// A valid document followed by anything but whitespace is
		// not that document.
		"trailing-garbage":  string(testScenarioJSON(t, "trailing", 1)) + "garbage",
		"trailing-document": string(testScenarioJSON(t, "trailing", 1)) + `{"x":1}`,
		"trailing-brackets": string(testScenarioJSON(t, "trailing", 1)) + "]]]",
	}
	for name, body := range bodies {
		t.Run(name, func(t *testing.T) {
			rec := post(t, s, "/v1/simulate", []byte(body))
			if rec.Code != http.StatusBadRequest {
				t.Errorf("status %d, want 400", rec.Code)
			}
		})
	}
	if got, want := s.Metrics().BadRequests, int64(len(bodies)); got != want {
		t.Errorf("bad_requests = %d, want %d", got, want)
	}
	if s.Metrics().SimulationsRun != 0 {
		t.Error("a bad request reached the simulator")
	}

	// Structurally valid but infeasible under admission control: the
	// run fails deterministically → 422, not cached.
	rec := post(t, s, "/v1/simulate", infeasibleJSON(t))
	if rec.Code != http.StatusUnprocessableEntity {
		t.Errorf("infeasible scenario: status %d, want 422: %s", rec.Code, rec.Body.String())
	}
	if got := s.cache.len(); got != 0 {
		t.Errorf("failed run left %d cache entries", got)
	}
}

// TestBodyLimit pins the MaxBodyBytes bound, with and without a
// Content-Length: a body at the limit is served, and one over it is a
// 413 even when only its trailing newline lies beyond the limit.
func TestBodyLimit(t *testing.T) {
	body := testScenarioJSON(t, "limit", 1)
	n := int64(len(body))
	for _, tc := range []struct {
		name  string
		limit int64
		chunk bool // no Content-Length
		code  int
	}{
		{"at limit", n, false, http.StatusOK},
		{"at limit, chunked", n, true, http.StatusOK},
		{"newline over limit", n - 1, false, http.StatusRequestEntityTooLarge},
		{"newline over limit, chunked", n - 1, true, http.StatusRequestEntityTooLarge},
		{"document over limit", n / 2, false, http.StatusRequestEntityTooLarge},
		{"document over limit, chunked", n / 2, true, http.StatusRequestEntityTooLarge},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := New(Config{Workers: 1, MaxBodyBytes: tc.limit})
			defer s.Close()
			var r io.Reader = bytes.NewReader(body)
			if tc.chunk {
				r = io.MultiReader(r) // hides the length from NewRequest
			}
			req := httptest.NewRequest("POST", "/v1/simulate", r)
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, req)
			if rec.Code != tc.code {
				t.Fatalf("status %d, want %d: %s", rec.Code, tc.code, rec.Body.String())
			}
			if tc.code == http.StatusRequestEntityTooLarge {
				if want := `{"error":"scenario: decode: http: request body too large"}` + "\n"; rec.Body.String() != want {
					t.Errorf("body %q, want %q", rec.Body.String(), want)
				}
			}
		})
	}
}

// TestMetricsEndpoint pins the /metrics document shape and that the
// counters move.
func TestMetricsEndpoint(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	body := testScenarioJSON(t, "metrics", 5)
	for i := 0; i < 3; i++ {
		if rec := post(t, s, "/v1/simulate", body); rec.Code != http.StatusOK {
			t.Fatalf("POST %d: status %d", i, rec.Code)
		}
	}

	req := httptest.NewRequest("GET", "/metrics", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /metrics: %d", rec.Code)
	}
	var snap Snapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("metrics JSON: %v", err)
	}
	if snap.CacheMisses != 1 || snap.CacheHits != 2 {
		t.Errorf("hits/misses = %d/%d, want 2/1", snap.CacheHits, snap.CacheMisses)
	}
	if snap.DecodesSkipped != 2 {
		t.Errorf("decodes_skipped = %d, want 2 (both repeats were byte-identical)", snap.DecodesSkipped)
	}
	if snap.SimulationsRun != 1 {
		t.Errorf("simulations_run = %d, want 1", snap.SimulationsRun)
	}
	if snap.Latency.Count != 3 {
		t.Errorf("latency count = %d, want 3", snap.Latency.Count)
	}
	if snap.Latency.P99MS < snap.Latency.P50MS {
		t.Errorf("p99 %v < p50 %v", snap.Latency.P99MS, snap.Latency.P50MS)
	}

	hreq := httptest.NewRequest("GET", "/healthz", nil)
	hrec := httptest.NewRecorder()
	s.ServeHTTP(hrec, hreq)
	if hrec.Code != http.StatusOK || !strings.Contains(hrec.Body.String(), `"ok"`) {
		t.Errorf("healthz: %d %q", hrec.Code, hrec.Body.String())
	}
}

// TestVerifyConfig pins that Config.Verify arms the oracle on served
// runs (a healthy scenario still passes — the wiring, not the oracle,
// is under test here).
func TestVerifyConfig(t *testing.T) {
	s := New(Config{Workers: 1, Verify: true})
	defer s.Close()
	rec := post(t, s, "/v1/simulate", testScenarioJSON(t, "verified", 6))
	if rec.Code != http.StatusOK {
		t.Fatalf("verified run: status %d: %s", rec.Code, rec.Body.String())
	}
}

// TestBodyMemo pins the body memo in front of the result cache: only
// a byte-identical repeat whose result is still resident skips
// decoding, it answers exactly as the decode path would, bodies that
// fail to decode are never memoized, and the memo stays within
// CacheEntries records.
func TestBodyMemo(t *testing.T) {
	a := testScenarioJSON(t, "memo-a", 1)
	b := testScenarioJSON(t, "memo-b", 2)
	c := testScenarioJSON(t, "memo-c", 3)
	var compact bytes.Buffer
	if err := json.Compact(&compact, a); err != nil {
		t.Fatal(err)
	}
	aCompact := compact.Bytes()            // same scenario as a, other bytes
	aPadded := append(bytes.Clone(a), ' ') // and a third encoding
	invalid := []byte("{not json")
	trailing := append(bytes.Clone(a), "garbage"...)
	pathSource := pathSourceJSON(t)
	infeasible := infeasibleJSON(t)

	type step struct {
		body    []byte
		code    int
		cache   string // X-Cache of a 200
		skipped bool   // answered through the memo
	}
	cases := []struct {
		name    string
		entries int // Config.CacheEntries
		steps   []step
		runs    int64 // simulations over all steps
	}{
		{"byte-identical repeat skips decoding", 0, []step{
			{a, 200, "miss", false}, {a, 200, "hit", true}, {a, 200, "hit", true},
		}, 1},
		{"reformatted copy decodes to the same result", 0, []step{
			{a, 200, "miss", false}, {aCompact, 200, "hit", false}, {aCompact, 200, "hit", true}, {a, 200, "hit", true},
		}, 1},
		{"invalid body is never memoized", 0, []step{
			{invalid, 400, "", false}, {invalid, 400, "", false}, {invalid, 400, "", false},
		}, 0},
		{"trailing garbage is never memoized", 0, []step{
			{a, 200, "miss", false}, {trailing, 400, "", false}, {trailing, 400, "", false}, {a, 200, "hit", true},
		}, 1},
		{"path source is never memoized", 0, []step{
			{pathSource, 400, "", false}, {pathSource, 400, "", false}, {pathSource, 400, "", false},
		}, 0},
		{"evicted result is decoded and simulated again", 1, []step{
			{a, 200, "miss", false}, {b, 200, "miss", false}, {a, 200, "miss", false}, {a, 200, "hit", true},
		}, 3},
		// A failed run leaves no entry behind, so its memoized body
		// finds nothing to join and runs again.
		{"failed result is decoded and simulated again", 0, []step{
			{infeasible, 422, "", false}, {infeasible, 422, "", false},
		}, 2},
		{"memo holds at most CacheEntries records", 2, []step{
			{a, 200, "miss", false}, {aCompact, 200, "hit", false}, {aPadded, 200, "hit", false},
			// a's record was the coldest of three: evicted, so a
			// decodes again although its result is resident.
			{a, 200, "hit", false}, {a, 200, "hit", true},
			{b, 200, "miss", false}, {c, 200, "miss", false}, {b, 200, "hit", true},
		}, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := New(Config{Workers: 1, CacheEntries: tc.entries})
			defer s.Close()
			var runs atomic.Int64
			simulate := s.run
			s.run = func(ctx context.Context, sc *scenario.Scenario, progress func(Progress)) (*result, error) {
				runs.Add(1)
				return simulate(ctx, sc, progress)
			}
			first := map[string][]byte{} // the first answer per scenario
			for i, st := range tc.steps {
				memoBefore := memoLen(s)
				skippedBefore := s.Metrics().DecodesSkipped
				rec := post(t, s, "/v1/simulate", st.body)
				if rec.Code != st.code {
					t.Fatalf("step %d: status %d, want %d: %s", i, rec.Code, st.code, rec.Body.String())
				}
				wantSkipped := int64(0)
				if st.skipped {
					wantSkipped = 1
				}
				if got := s.Metrics().DecodesSkipped - skippedBefore; got != wantSkipped {
					t.Errorf("step %d: decodes_skipped moved by %d, want %d", i, got, wantSkipped)
				}
				if n := memoLen(s); n > s.cache.max {
					t.Errorf("step %d: memo holds %d records, bound %d", i, n, s.cache.max)
				}
				key := "request " + string(st.body) // a 200 is keyed by digest instead
				if st.code == http.StatusOK {
					if cs := rec.Header().Get("X-Cache"); cs != st.cache {
						t.Errorf("step %d: X-Cache %q, want %q", i, cs, st.cache)
					}
					sc, err := scenario.Decode(bytes.NewReader(st.body))
					if err != nil {
						t.Fatal(err)
					}
					key, err = sc.Digest()
					if err != nil {
						t.Fatal(err)
					}
					if got := rec.Header().Get("X-Scenario-Digest"); got != key {
						t.Errorf("step %d: X-Scenario-Digest %s, want %s", i, got, key)
					}
				} else if n := memoLen(s); st.code == http.StatusBadRequest && n != memoBefore {
					t.Errorf("step %d: a 400 answer changed the memo from %d to %d records", i, memoBefore, n)
				}
				if prev, ok := first[key]; ok && !bytes.Equal(prev, rec.Body.Bytes()) {
					t.Errorf("step %d: body differs from the first answer for the same scenario", i)
				}
				first[key] = rec.Body.Bytes()
			}
			if got := runs.Load(); got != tc.runs {
				t.Errorf("%d simulations, want %d", got, tc.runs)
			}
		})
	}
}

func memoLen(s *Server) int {
	s.cache.mu.Lock()
	defer s.cache.mu.Unlock()
	return len(s.cache.memo)
}
