// Package serve implements simulation-as-a-service: the HTTP/JSON
// layer behind cmd/rtserved. A POST /v1/simulate accepts a canonical
// sim/scenario document and returns exactly the report a local
// `rtrun -scenario` run prints (byte-equal, pinned by test), backed
// by three load-bearing pieces:
//
//   - A content-addressed result cache keyed by scenario.Digest()
//     (SHA-256 of the canonical scenario bytes + schema version) with
//     singleflight deduplication: N identical in-flight requests cost
//     one simulation, repeats cost zero. Simulations are deterministic
//     functions of their scenario, so the cache is exact, and the
//     digest's SchemaVersion pin means an engine behaviour change
//     invalidates every stale key. Completed results form an LRU
//     bounded at Config.CacheEntries.
//
//     The key has two levels: raw-body SHA-256 → digest → result. A
//     body that has once decoded, validated and digested is memoized
//     (an LRU of at most Config.CacheEntries fixed-size records), so a
//     byte-identical repeat whose result is still resident joins it
//     without decoding or digesting again (counted in /metrics as
//     decodes_skipped). Any other body — new, reformatted, or one
//     whose result was evicted — takes the decode path, so the memo
//     changes no answer.
//
//   - An admission/backpressure layer: simulations are scheduled onto
//     a bounded runner.Pool, and when the accept queue is full the
//     server answers 429 + Retry-After instead of queueing without
//     bound — saturating load degrades into fast rejections, never
//     OOM. GET /healthz and GET /metrics (counters, queue depth,
//     in-flight, and a GK-sketch latency histogram) expose the state.
//
//   - Optional progress streaming: POST /v1/simulate?stream=sse (or
//     Accept: text/event-stream) answers with server-sent events —
//     queued, then throttled progress observations of the virtual
//     clock from the run's trace stream, then the result — so a
//     long-horizon run is observable while it computes.
package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"time"

	"repro/internal/runner"
	"repro/internal/vtime"
	"repro/sim"
	"repro/sim/scenario"
)

// Config tunes a Server. The zero value is ready to use.
type Config struct {
	// Workers is the simulation worker count (<= 0: GOMAXPROCS).
	Workers int
	// QueueDepth bounds the accept queue (<= 0: 2× workers). A full
	// queue is surfaced as HTTP 429.
	QueueDepth int
	// CacheEntries bounds the completed-result LRU (<= 0: 1024).
	CacheEntries int
	// MaxBodyBytes caps a request body (<= 0: 8 MiB).
	MaxBodyBytes int64
	// RetryAfter is the 429 Retry-After hint (<= 0: 1s).
	RetryAfter time.Duration
	// Verify arms the online invariant oracle on every served run: a
	// scheduling-axiom violation fails the request instead of serving
	// a wrong report.
	Verify bool
}

func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

func (c Config) cacheEntries() int {
	if c.CacheEntries > 0 {
		return c.CacheEntries
	}
	return 1024
}

func (c Config) maxBody() int64 {
	if c.MaxBodyBytes > 0 {
		return c.MaxBodyBytes
	}
	return 8 << 20
}

func (c Config) retryAfter() time.Duration {
	if c.RetryAfter > 0 {
		return c.RetryAfter
	}
	return time.Second
}

// errOverloaded marks a cache entry whose owning request could not be
// admitted: waiters turn it into their own 429.
var errOverloaded = errors.New("serve: accept queue full")

// Server is the simulation service. It implements http.Handler; use
// New, serve it, then Close to drain the worker pool.
type Server struct {
	cfg   Config
	pool  *runner.Pool
	cache *cache
	met   *Metrics
	mux   *http.ServeMux

	// run executes one simulation. Tests substitute it to pin
	// scheduling behaviour (singleflight, shedding) without real runs.
	run func(ctx context.Context, sc *scenario.Scenario, progress func(Progress)) (*result, error)
}

// New builds a Server and starts its worker pool.
func New(cfg Config) *Server {
	s := &Server{
		cfg:   cfg,
		pool:  runner.NewPool(runner.Options{Parallelism: cfg.workers(), QueueDepth: cfg.QueueDepth}),
		cache: newCache(cfg.cacheEntries()),
		met:   newMetrics(),
		mux:   http.NewServeMux(),
	}
	s.run = s.simulate
	s.mux.HandleFunc("POST /v1/simulate", func(w http.ResponseWriter, r *http.Request) {
		s.met.simulate.Add(1)
		start := time.Now()
		s.handleSimulate(w, r)
		s.met.observeLatency(time.Since(start))
	})
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s
}

// Close drains the worker pool (in-flight simulations finish and
// complete their cache entries, so no waiter is left hanging).
func (s *Server) Close() { s.pool.Close() }

// Metrics exposes the server's counters, e.g. for tests.
func (s *Server) Metrics() Snapshot { return s.snapshot() }

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.met.requests.Add(1)
	s.mux.ServeHTTP(w, r)
}

func (s *Server) snapshot() Snapshot {
	return Snapshot{
		RequestsTotal:    s.met.requests.Load(),
		SimulateRequests: s.met.simulate.Load(),
		CacheHits:        s.met.hits.Load(),
		DecodesSkipped:   s.met.decodesSkipped.Load(),
		CacheMisses:      s.met.misses.Load(),
		Throttled:        s.met.throttled.Load(),
		BadRequests:      s.met.badRequests.Load(),
		RunErrors:        s.met.runErrors.Load(),
		SimulationsRun:   s.met.simulations.Load(),
		QueueDepth:       s.pool.QueueDepth(),
		QueueCap:         s.pool.QueueCap(),
		InFlight:         s.pool.InFlight(),
		CacheEntries:     s.cache.len(),
		Latency:          s.met.latencySnapshot(),
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintln(w, `{"status":"ok"}`)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	b, err := json.MarshalIndent(s.snapshot(), "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(b)
	w.Write([]byte("\n"))
}

// errorBody writes the uniform JSON error shape.
func errorBody(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

// throttle answers 429 + Retry-After — the admission layer's contract
// under saturation — and counts the shed response.
//
// Retry-After only has whole-second resolution, so the configured
// backoff is ceiled, never rounded: rounding a sub-second RetryAfter
// down would emit "Retry-After: 0", telling every shed client to
// hammer the saturated server again immediately — the opposite of
// backpressure.
func (s *Server) throttle(w http.ResponseWriter) {
	s.met.throttled.Add(1)
	ra := int64((s.cfg.retryAfter() + time.Second - 1) / time.Second)
	if ra < 1 {
		ra = 1
	}
	w.Header().Set("Retry-After", strconv.FormatInt(ra, 10))
	errorBody(w, http.StatusTooManyRequests, "accept queue full, retry later")
}

func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	body, err := readBody(w, r, s.cfg.maxBody())
	if err != nil {
		s.met.badRequests.Add(1)
		// Worded as when scenario.Decode read the body itself.
		msg := "scenario: decode: " + err.Error()
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			errorBody(w, http.StatusRequestEntityTooLarge, msg)
			return
		}
		errorBody(w, http.StatusBadRequest, msg)
		return
	}

	// A byte-identical repeat of a body that already reached a
	// resident entry joins it directly: decoding and digesting it
	// again could only arrive at the same entry.
	key := sha256.Sum256(body)
	e := s.cache.join(key)
	created := false
	if e != nil {
		s.met.decodesSkipped.Add(1)
	} else {
		sc, digest, err := decodeScenario(body)
		if err != nil {
			s.met.badRequests.Add(1)
			errorBody(w, http.StatusBadRequest, err.Error())
			return
		}
		s.cache.memoize(key, digest)
		if e, created = s.cache.lookup(digest); created {
			// Singleflight owner: this request (alone) pays for
			// admission. Everyone else for the same digest —
			// concurrent or later — joins the entry without
			// consuming a queue slot.
			s.met.misses.Add(1)
			job := func(ctx context.Context) {
				s.met.simulations.Add(1)
				res, rerr := s.run(ctx, sc, e.publish)
				if rerr != nil {
					s.met.runErrors.Add(1)
				}
				s.cache.completed(e, res, rerr)
			}
			if err := s.pool.TrySubmit(job); err != nil {
				// Shed the load; the failed entry is removed so the
				// next request retries, and any waiter that raced in
				// sees errOverloaded and sheds too.
				s.cache.completed(e, nil, errOverloaded)
				s.throttle(w)
				return
			}
		}
	}
	cacheStatus := "miss"
	if !created {
		s.met.hits.Add(1)
		cacheStatus = "hit"
	}

	q := r.URL.Query()
	rawReport := q.Get("format") == "report"
	if wantsSSE(r, q) {
		s.streamSimulate(w, r, e, cacheStatus, rawReport)
		return
	}

	select {
	case <-e.done:
	case <-r.Context().Done():
		// Client gone. The simulation (if any) keeps running and
		// completes the cache — the work is addressed by content, not
		// by this request.
		return
	}
	if e.err != nil {
		if errors.Is(e.err, errOverloaded) {
			s.throttle(w)
			return
		}
		// The scenario decoded but its run failed (admission found it
		// infeasible, or the invariant oracle tripped): deterministic
		// for this document, but not cached so a fixed engine retries.
		errorBody(w, http.StatusUnprocessableEntity, e.err.Error())
		return
	}
	s.writeResult(w, e, cacheStatus, rawReport)
}

// readBody reads the whole request body, bounded by limit, into one
// buffer presized from Content-Length (the io.ReadAll loop, without
// its growth from 512 bytes).
func readBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, error) {
	size := int64(bytes.MinRead)
	if n := r.ContentLength; n > 0 {
		// +1 leaves room to read EOF without growing.
		size = min(n, limit) + 1
	}
	buf := make([]byte, 0, size)
	body := http.MaxBytesReader(w, r.Body, limit)
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// decodeScenario turns a request body into the scenario to run and
// its digest. Every error is the client's fault (a 400).
func decodeScenario(body []byte) (*scenario.Scenario, string, error) {
	sc, err := scenario.Decode(bytes.NewReader(body))
	if err != nil {
		return nil, "", err
	}
	// A path-referenced trace source is rejected outright: the digest
	// covers only the scenario document, so the file's content is
	// invisible to the cache key — two different traces behind the
	// same path would alias one cache entry (and the path names a
	// client-local file this server has no business reading anyway).
	if sc.HasPathSource() {
		return nil, "", errors.New("trace arrival sources must inline their records (\"records\"): a \"path\" reference is not content-addressable")
	}
	digest, err := sc.Digest()
	if err != nil {
		return nil, "", err
	}
	return sc, digest, nil
}

// envelope is the deterministic JSON response for one digest: rebuilt
// from the cached result on every request, so repeated responses are
// byte-equal. Cache status deliberately travels in the X-Cache header,
// not here — it is per-request, not per-result.
type envelope struct {
	Digest       string  `json:"digest"`
	Report       string  `json:"report"`
	Detections   int64   `json:"detections"`
	Switches     int64   `json:"switches"`
	SuccessRatio float64 `json:"success_ratio"`
}

func resultEnvelope(digest string, res *result) envelope {
	return envelope{
		Digest:       digest,
		Report:       string(res.report),
		Detections:   res.detections,
		Switches:     res.switches,
		SuccessRatio: res.successRatio,
	}
}

func (s *Server) writeResult(w http.ResponseWriter, e *entry, cacheStatus string, rawReport bool) {
	h := w.Header()
	h.Set("X-Scenario-Digest", e.digest)
	h.Set("X-Cache", cacheStatus)
	if rawReport {
		// The raw report: byte-equal to the summary `rtrun -scenario`
		// prints, so `cmp` against the CLI works from a shell.
		h.Set("Content-Type", "text/plain; charset=utf-8")
		w.Write(e.res.report)
		return
	}
	h.Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.Encode(resultEnvelope(e.digest, e.res))
}

// simulate is the real run function: scenario → sim.System → report.
// The context is only consulted up front (the engine is not
// preemptible); a pool drained by Close simply finishes its queue.
func (s *Server) simulate(ctx context.Context, sc *scenario.Scenario, progress func(Progress)) (*result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sys, err := sim.FromScenario(*sc)
	if err != nil {
		return nil, err
	}
	if s.cfg.Verify {
		sys.SetVerify(true)
	}
	if progress != nil {
		horizonMS := sc.Horizon.D().Milliseconds()
		every := sc.Horizon.D() / 100
		if every < vtime.Millis(1) {
			every = vtime.Millis(1)
		}
		sys.ObserveProgress(scenario.Duration(every), func(at scenario.Duration) {
			atMS := at.D().Milliseconds()
			progress(Progress{
				AtMS:      atMS,
				HorizonMS: horizonMS,
				Percent:   100 * float64(atMS) / float64(horizonMS),
			})
		})
	}
	res, err := sys.Run()
	if err != nil {
		return nil, err
	}
	return &result{
		report:       []byte(res.Summary()),
		detections:   res.Detections,
		switches:     res.Switches,
		successRatio: res.SuccessRatio(),
	}, nil
}
