package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve"
	"repro/sim"
	"repro/sim/scenario"
)

// Request headers that carry a traced request's identity from the
// client span to the handler span.
const (
	hdrReq    = "X-Bench-Req"
	hdrParent = "X-Bench-Parent"
)

// simulatePath is the request every served workload sends.
const simulatePath = "/v1/simulate?format=report"

// server is one in-process rtserved: serve.New with the default config
// behind a loopback listener. During a traced phase it wraps
// Server.ServeHTTP in a span.
type server struct {
	srv  *serve.Server
	hs   *http.Server
	url  string
	done chan struct{}
	rec  atomic.Pointer[Recorder]
}

func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rec := s.rec.Load()
	if rec == nil {
		s.srv.ServeHTTP(w, r)
		return
	}
	start := rec.Now()
	s.srv.ServeHTTP(w, r)
	end := rec.Now()
	req, _ := strconv.ParseInt(r.Header.Get(hdrReq), 10, 64)
	parent, _ := strconv.ParseInt(r.Header.Get(hdrParent), 10, 64)
	rec.Add(Span{ID: rec.NewID(), Parent: parent, Req: req, Name: "serve.ServeHTTP", Start: start, End: end})
}

// startServer is the served workloads' set-up: it builds the server,
// waits until /healthz answers, then sends one request per priming
// body. The priming responses are returned for checking.
func startServer(prime [][]byte) (*server, []served, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	s := &server{srv: serve.New(serve.Config{}), url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	s.hs = &http.Server{Handler: s}
	go func() {
		defer close(s.done)
		_ = s.hs.Serve(ln) // returns http.ErrServerClosed once close runs
	}()
	c := newClient()
	defer c.close()
	if err := c.healthz(s.url); err != nil {
		s.close()
		return nil, nil, err
	}
	out := make([]served, len(prime))
	for i, b := range prime {
		out[i] = c.simulate(s.url, b, 0)
	}
	return s, out, nil
}

// close stops the listener and every connection, waits for the serve
// loop to return, then drains the worker pool.
func (s *server) close() {
	_ = s.hs.Close()
	<-s.done
	s.srv.Close()
}

// client owns one keep-alive connection to the server.
type client struct {
	tr *http.Transport
	hc *http.Client
}

func newClient() *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{tr: tr, hc: &http.Client{Transport: tr}}
}

func (c *client) close() { c.tr.CloseIdleConnections() }

func (c *client) healthz(url string) error {
	var last error
	for i := 0; i < 200; i++ {
		resp, err := c.hc.Get(url + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			err = fmt.Errorf("healthz: status %d", resp.StatusCode)
		}
		last = err
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("server never became healthy: %w", last)
}

// simulate POSTs one scenario document; span, when non-zero, is the
// client span the server-side span attaches to.
func (c *client) simulate(url string, body []byte, span int64) served {
	req, err := http.NewRequest(http.MethodPost, url+simulatePath, bytes.NewReader(body))
	if err != nil {
		return served{err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	if span != 0 {
		id := strconv.FormatInt(span, 10)
		req.Header.Set(hdrReq, id)
		req.Header.Set(hdrParent, id)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return served{err: err}
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return served{err: err}
	}
	return served{
		status: resp.StatusCode,
		body:   b,
		digest: resp.Header.Get("X-Scenario-Digest"),
		cache:  resp.Header.Get("X-Cache"),
	}
}

// Served phases are cut into segments of segmentLen, with a host-speed
// calibration after each, and segments into windows of windowLen.
const (
	segmentLen = time.Second
	windowLen  = 250 * time.Millisecond
)

// phase is the record of one closed-loop phase.
type phase struct {
	rtts      []float64 // round trips, µs
	windows   []window
	calib     []float64 // calibration loop times, ms
	attempted int64
	before    serve.Snapshot
	after     serve.Snapshot
	gcCPU     float64 // GC and total CPU seconds while driving load
	totalCPU  float64
}

// measure runs a closed-loop phase of dur in segments, calibrating the
// host's speed after each.
func (s *server) measure(dur time.Duration, next func() (int, bool), body func(int) []byte, onResp func(int, served), rec *Recorder) *phase {
	p := &phase{before: s.srv.Metrics()}
	n := max(1, int(dur/segmentLen))
	for i := 0; i < n; i++ {
		s.drive(p, dur/time.Duration(n), next, body, onResp, rec)
		p.calib = append(p.calib, calibrate(runtime.GOMAXPROCS(0))...)
	}
	return p
}

// drive adds one segment of closed-loop load to p: GOMAXPROCS clients,
// each with its own connection, each sending its next request only
// after the previous reply. next hands out input indices (false:
// inputs exhausted); onResp sees every response, from the client
// goroutines. With rec non-nil every request records a client span and
// a server-side child span.
func (s *server) drive(p *phase, dur time.Duration, next func() (int, bool), body func(int) []byte, onResp func(int, served), rec *Recorder) {
	clients := runtime.GOMAXPROCS(0)
	g0 := readRuntime()
	s.rec.Store(rec)
	defer s.rec.Store(nil)

	var ok atomic.Int64
	stop := make(chan struct{})
	sampled := make(chan struct{})
	prev := readUsage()
	go func() {
		defer close(sampled)
		t := time.NewTicker(windowLen)
		defer t.Stop()
		var n int64
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				cur, now := ok.Load(), readUsage()
				p.windows = append(p.windows, prev.to(now, float64(cur-n)))
				prev, n = now, cur
			}
		}
	}()

	deadline := prev.at.Add(dur)
	rtts := make([][]float64, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := newClient()
			defer cl.close()
			for time.Now().Before(deadline) {
				idx, more := next()
				if !more {
					return
				}
				var span int64
				var spanStart time.Duration
				if rec != nil {
					span, spanStart = rec.NewID(), rec.Now()
				}
				t0 := time.Now()
				got := cl.simulate(s.url, body(idx), span)
				rtt := time.Since(t0)
				if rec != nil {
					rec.Add(Span{ID: span, Req: span, Name: "client.request", Start: spanStart, End: rec.Now()})
				}
				rtts[c] = append(rtts[c], float64(rtt)/1e3)
				if got.err == nil && got.status == http.StatusOK {
					ok.Add(1)
				}
				onResp(idx, got)
			}
		}(c)
	}
	wg.Wait()
	close(stop)
	<-sampled
	g1 := readRuntime()
	p.gcCPU += g1.gcCPU - g0.gcCPU
	p.totalCPU += g1.totalCPU - g0.totalCPU
	p.after = s.srv.Metrics()
	for _, r := range rtts {
		p.rtts = append(p.rtts, r...)
		p.attempted += int64(len(r))
	}
}

// e2e computes the phase's end-to-end metrics (setup_s aside): the
// median round trip and the median over windows of the CPU per
// successful request, both scaled to the reference host speed, and the
// allocation per successful request over the whole phase.
func (p *phase) e2e() map[string]float64 {
	scale := speedScale(p.calib)
	t := total(p.windows)
	return map[string]float64{
		"latency_ref_us":    median(p.rtts) * scale,
		"cpu_ref_us_per_op": median(perOp(p.windows, cpuUS)) * scale,
		"alloc_b_per_op":    allocB(t) / t.ops,
	}
}

// serverLayers computes the serve-side per-layer metrics of a phase.
func (p *phase) serverLayers() map[string]float64 {
	hits := p.after.CacheHits - p.before.CacheHits
	misses := p.after.CacheMisses - p.before.CacheMisses
	sims := p.after.SimulationsRun - p.before.SimulationsRun
	reqs := p.after.SimulateRequests - p.before.SimulateRequests
	return map[string]float64{
		"serve.throttled":    float64(p.after.Throttled - p.before.Throttled),
		"serve.hit_ratio":    ratio(float64(hits), float64(hits+misses)),
		"serve.sims_per_req": ratio(float64(sims), float64(reqs)),
		"client.rtt_p99_ms":  quantile(p.rtts, 0.99) / 1e3,
	}
}

// spanLayers derives the served per-layer times from a traced phase's
// spans: the handler's mean duration, and the client's self time (the
// round trip minus the handler: HTTP client, transport and loopback).
func spanLayers(spans []Span) map[string]float64 {
	by := ByName(spans)
	return map[string]float64{
		"serve.handler_us": by["serve.ServeHTTP"].meanSelfUS(),
		"client.self_us":   by["client.request"].meanSelfUS(),
	}
}

// localTruth computes the expected response for one document outside
// any timed phase: its digest and the report of a local run.
func localTruth(body []byte) (expected, error) {
	sc, err := scenario.Decode(bytes.NewReader(body))
	if err != nil {
		return expected{}, err
	}
	d, err := sc.Digest()
	if err != nil {
		return expected{}, err
	}
	sys, err := sim.FromScenario(*sc)
	if err != nil {
		return expected{}, err
	}
	res, err := sys.Run()
	if err != nil {
		return expected{}, err
	}
	return expected{digest: d, report: []byte(res.Summary())}, nil
}

// parallel calls fn(i) for i in [0, n) on GOMAXPROCS goroutines and
// returns the first error.
func parallel(n int, fn func(i int) error) error {
	workers := runtime.GOMAXPROCS(0)
	var next atomic.Int64
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n || errs[w] != nil {
					return
				}
				errs[w] = fn(i)
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
