package main

import (
	"fmt"
	"sync/atomic"
	"time"
)

// Served-workload timing constants.
const (
	// serveSetupReps is how many times a served workload sets up; the
	// reported setup_s is the median, and the last server is kept.
	serveSetupReps = 9
	// serveWarmup runs before timing: connections open, the heap
	// grows to its working size, and serve_miss measures its rate.
	serveWarmup = 500 * time.Millisecond
	// missInitialDocs is serve_miss's pool before the warm-up; the pool
	// is then grown to what the measured rate needs.
	missInitialDocs = 2048
	// serveProbeLen is how long serveProbe serves hits.
	serveProbeLen = time.Second
	// probeDocs caps how many of serve_miss's timed documents the layer
	// probes replay.
	probeDocs = 200
)

// setupServer sets the server up serveSetupReps times and returns the
// last server, the median set-up time, and the priming responses of
// every set-up.
func setupServer(prime [][]byte) (*server, float64, [][]served, error) {
	var s *server
	var times []float64
	var primed [][]served
	for k := 0; k < serveSetupReps; k++ {
		if s != nil {
			s.close()
		}
		t0 := time.Now()
		srv, got, err := startServer(prime)
		d := time.Since(t0)
		if err != nil {
			return nil, 0, nil, err
		}
		times = append(times, d.Seconds())
		primed = append(primed, got)
		s = srv
	}
	return s, median(times), primed, nil
}

// phases runs the timed phases of a served workload: one untraced
// phase of the whole measured time, or, traced, an untraced and a
// traced phase of half each. It fills the outcome's end-to-end metrics
// and, traced, the served per-layer metrics and the tracing overhead.
func phases(cfg runConfig, o *outcome, s *server, next func() (int, bool), body func(int) []byte, onResp func(int, served)) {
	measure := cfg.measure()
	if cfg.traced {
		measure /= 2
	}
	p := s.measure(measure, next, body, onResp, nil)
	o.attempted.Add(p.attempted)
	o.setE2E(p.e2e(), speedScale(p.calib))
	o.notef("as measured: setup_s %.6f s  p50_ms %.4f ms (n=%d)  client.rtt_p99_ms %.4f ms  cpu_us_per_req %.2f us (median of %d windows)  alloc_bytes_per_req %.0f B  calibration %.2f ms (median of %d)",
		o.setup, median(p.rtts)/1e3, len(p.rtts), quantile(p.rtts, 0.99)/1e3, median(perOp(p.windows, cpuUS)), len(p.windows), o.e2e["alloc_b_per_op"], median(p.calib), len(p.calib))
	if !cfg.traced {
		return
	}
	o.rec = NewRecorder()
	traced := s.measure(measure, next, body, onResp, o.rec)
	o.attempted.Add(traced.attempted)
	o.overhead(traced.e2e())
	o.setLayers(traced.serverLayers())
	o.setLayers(spanLayers(o.rec.Spans()))
	o.setLayers(map[string]float64{
		"runtime.gc_cpu_share": ratio(traced.gcCPU, traced.totalCPU),
		"host.calib_ms":        median(traced.calib),
	})
}

// serveProbe measures the served layers for a workload that does not
// go through the server (batch_long), on its own documents: each is
// primed once, then they are served as cache hits in a traced closed
// loop for serveProbeLen. Every response is checked.
func serveProbe(o *outcome, docs [][]byte) error {
	want := make([]expected, len(docs))
	if err := parallel(len(docs), func(i int) error {
		var err error
		want[i], err = localTruth(docs[i])
		return err
	}); err != nil {
		return err
	}
	s, primed, err := startServer(docs)
	if err != nil {
		return err
	}
	defer s.close()
	for i, got := range primed {
		o.attempted.Add(1)
		o.fail("probe priming request", checkServed(got, want[i], "miss"))
	}
	var cursor atomic.Int64
	p := &phase{before: s.srv.Metrics()}
	s.drive(p, serveProbeLen,
		func() (int, bool) { return int((cursor.Add(1) - 1) % int64(len(docs))), true },
		func(i int) []byte { return docs[i] },
		func(i int, got served) { o.fail("probe request", checkServed(got, want[i], "hit")) },
		o.rec)
	o.attempted.Add(p.attempted)
	o.setLayers(p.serverLayers())
	o.setLayers(spanLayers(o.rec.Spans()))
	return nil
}

// runServeHit: every timed request repeats a primed document, so every
// one must be a cache hit.
func runServeHit(cfg runConfig, o *outcome) error {
	bodies, err := hitBodies(cfg.seed)
	if err != nil {
		return err
	}
	o.notef("inputs: %d documents (committed scenarios + %d seeded gen.Scenario), sha256 %s", len(bodies), hitGenDocs, inputHash(bodies))
	want := make([]expected, len(bodies))
	if err := parallel(len(bodies), func(i int) error {
		var err error
		want[i], err = localTruth(bodies[i])
		return err
	}); err != nil {
		return err
	}

	s, setup, primed, err := setupServer(bodies)
	if err != nil {
		return err
	}
	defer s.close()
	o.setup = setup
	for _, got := range primed {
		for i := range got {
			o.attempted.Add(1)
			o.fail("priming request", checkServed(got[i], want[i], "miss"))
		}
	}

	var cursor atomic.Int64
	next := func() (int, bool) { return int((cursor.Add(1) - 1) % int64(len(bodies))), true }
	body := func(i int) []byte { return bodies[i] }
	onResp := func(i int, got served) { o.fail("serve_hit request", checkServed(got, want[i], "hit")) }

	warm := &phase{}
	s.drive(warm, serveWarmup, next, body, onResp, nil)
	o.attempted.Add(warm.attempted)
	phases(cfg, o, s, next, body, onResp)
	if !cfg.traced {
		return nil
	}
	return probe(o, bodies)
}

// runServeMiss: every request is a distinct generated document, so
// every one must be a cache miss that runs a simulation. Responses are
// kept and checked against local runs after the timed phases.
func runServeMiss(cfg runConfig, o *outcome) error {
	pool, err := extendMiss(cfg.seed, nil, missInitialDocs)
	if err != nil {
		return err
	}
	o.notef("inputs: gen.Scenario sequence; first %d documents sha256 %s", hashedMissDocs, inputHash(pool[:hashedMissDocs]))

	s, setup, _, err := setupServer(nil)
	if err != nil {
		return err
	}
	defer s.close()
	o.setup = setup

	results := make([]served, len(pool))
	var cursor atomic.Int64
	limit := int64(len(pool))
	next := func() (int, bool) {
		i := cursor.Add(1) - 1
		return int(i), i < limit
	}
	body := func(i int) []byte { return pool[i] }
	onResp := func(i int, got served) { results[i] = got }

	warm := &phase{}
	s.drive(warm, serveWarmup, next, body, onResp, nil)
	o.attempted.Add(warm.attempted)
	// Grow the pool to what the measured rate needs, with a margin; the
	// pool is held in memory, so a run that outpaces it ends its timed
	// phase early (and says so). Generation happens here, outside any
	// timed phase.
	rate := float64(warm.attempted) / serveWarmup.Seconds()
	need := int(cursor.Load()) + int(rate*cfg.measure().Seconds()*1.3) + missInitialDocs
	if pool, err = extendMiss(cfg.seed, pool, need); err != nil {
		return err
	}
	results = append(results, make([]served, len(pool)-len(results))...)
	limit = int64(len(pool))
	timedFrom := int(cursor.Load())

	phases(cfg, o, s, next, body, onResp)
	sent := int(min(cursor.Load(), limit))
	if cursor.Load() >= limit {
		o.notef("note: the input pool ran out, so the timed phase ended early")
	}

	fails := make([]error, sent)
	if err := parallel(sent, func(i int) error {
		want, err := localTruth(pool[i])
		if err != nil {
			fails[i] = fmt.Errorf("local run: %w", err)
			return nil
		}
		fails[i] = checkServed(results[i], want, "miss")
		return nil
	}); err != nil {
		return err
	}
	for i, err := range fails {
		o.fail(fmt.Sprintf("serve_miss request %d", i), err)
	}
	if !cfg.traced {
		return nil
	}
	// The layer probes replay the first documents of the timed phases.
	return probe(o, pool[timedFrom:min(sent, timedFrom+probeDocs)])
}
