package main

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/analysis"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/internal/vtime"
	"repro/sim"
	"repro/sim/scenario"
)

// probeReps is how many times a probe repeats each sub-millisecond
// call on one document.
const probeReps = 3

// docInfo is what probing one document counted; it is keyed by the
// request id its spans share.
type docInfo struct {
	cpus     int
	admitted bool // uniprocessor with admission control: core → detect path
	laddered bool // ran the engine/metrics ladder (no polling servers)

	decodeAllocs, digestAllocs uint64
	events, jobs               int64 // ladder step 1, counting sink
	switches, migrations       int64
	detections                 int64 // ladder step 3
	replayEvents               int64
	replayAllocs               uint64
}

// countSink is the ladder's first step: a trace.Sink that only counts.
type countSink struct{ events, jobs, migrations int64 }

func (c *countSink) Append(e trace.Event) {
	c.events++
	switch e.Kind {
	case trace.JobRelease:
		c.jobs++
	case trace.JobMigrate:
		c.migrations++
	}
}

// probe measures each layer's public entry points, from outside, on
// the workload's own documents. Every call is a span under one root
// span per document; the per-layer metrics are computed from the spans.
func probe(o *outcome, docs [][]byte) error {
	rec := o.rec
	infos := make(map[int64]*docInfo, len(docs))
	for _, body := range docs {
		req := rec.NewID()
		t0 := rec.Now()
		info, err := probeDoc(rec, req, body)
		if err != nil {
			return fmt.Errorf("probing layers: %w", err)
		}
		rec.Add(Span{ID: req, Req: req, Name: "probe", Start: t0, End: rec.Now()})
		infos[req] = info
	}
	var spans []Span
	for _, s := range rec.Spans() {
		if infos[s.Req] != nil {
			spans = append(spans, s)
		}
	}
	o.setLayers(probeLayers(spans, infos))
	o.notef("layers: probed %d documents; ladder = engine+counting sink → engine+Accumulator → System.Run on streamed copies; "+
		"metrics.ladder = step2−step1, core.self = step3−step2 on admitted uniprocessor documents (their detectors also change the event stream)", len(docs))
	return nil
}

// allocCounter measures heap allocations (objects) around a call,
// net of what reading the counter allocates.
type allocCounter struct{ base uint64 }

func newAllocCounter() allocCounter {
	a := readRuntime().allocObjs
	return allocCounter{base: readRuntime().allocObjs - a}
}

func (c allocCounter) count(fn func()) uint64 {
	a := readRuntime().allocObjs
	fn()
	d := readRuntime().allocObjs - a
	if d < c.base {
		return 0
	}
	return d - c.base
}

func probeDoc(rec *Recorder, req int64, body []byte) (*docInfo, error) {
	span := func(name string, fn func()) {
		t0 := rec.Now()
		fn()
		rec.Add(Span{ID: rec.NewID(), Parent: req, Req: req, Name: name, Start: t0, End: rec.Now()})
	}
	ac := newAllocCounter()
	var sc *scenario.Scenario
	var err error
	info := &docInfo{}
	info.decodeAllocs = ac.count(func() {
		for i := 0; i < probeReps && err == nil; i++ {
			span("scenario.Decode", func() { sc, err = scenario.Decode(bytes.NewReader(body)) })
		}
	})
	if err != nil {
		return nil, err
	}
	info.digestAllocs = ac.count(func() {
		for i := 0; i < probeReps && err == nil; i++ {
			span("scenario.Digest", func() { _, err = sc.Digest() })
		}
	})
	if err != nil {
		return nil, err
	}
	var sys *sim.System
	for i := 0; i < probeReps && err == nil; i++ {
		span("sim.FromScenario", func() { sys, err = sim.FromScenario(*sc) })
	}
	if err != nil {
		return nil, err
	}
	var res *sim.RunResult
	span("System.Run", func() { res, err = sys.Run() })
	if err != nil {
		return nil, err
	}
	for i := 0; i < probeReps; i++ {
		span("RunResult.Summary", func() { _ = res.Summary() })
	}

	info.cpus = max(sc.CPUs, 1)
	info.admitted = sc.CPUs <= 1 && !sc.SkipAdmission
	if info.admitted {
		set, err := sc.TaskSet()
		if err != nil {
			return nil, err
		}
		for i := 0; i < probeReps && err == nil; i++ {
			span("analysis.Feasible", func() { _, err = analysis.Feasible(set) })
		}
		if err != nil {
			return nil, err
		}
	}
	if len(sc.Servers) == 0 {
		if err := ladder(span, ac, info, *sc); err != nil {
			return nil, err
		}
	}
	return info, nil
}

// ladder runs the engine/metrics ladder on a streamed copy of the
// document: (1) engine with a counting sink, (2) engine with the
// metrics.Accumulator, (3) the full System.Run. It then replays a
// retained run's event stream into a fresh Accumulator and through
// metrics.Analyze and Report.Render.
func ladder(span func(string, func()), ac allocCounter, info *docInfo, sc scenario.Scenario) error {
	sc.Collect = &scenario.Collect{Mode: scenario.CollectStream}
	sc.Verify, sc.FastForward = false, false
	var err error

	cnt := &countSink{}
	cfg, err := engineConfig(&sc, engine.Stream, cnt)
	if err != nil {
		return err
	}
	var eng *engine.Engine
	span("ladder.engine", func() {
		if eng, err = engine.New(cfg); err == nil {
			eng.Run()
		}
	})
	if err != nil {
		return err
	}
	info.events, info.jobs, info.migrations, info.switches = cnt.events, cnt.jobs, cnt.migrations, eng.Switches()

	if cfg, err = engineConfig(&sc, engine.Stream, metrics.NewAccumulator()); err != nil {
		return err
	}
	span("ladder.engine+accumulator", func() {
		if eng, err = engine.New(cfg); err == nil {
			eng.Run()
		}
	})
	if err != nil {
		return err
	}

	sys, err := sim.FromScenario(sc)
	if err != nil {
		return err
	}
	var res *sim.RunResult
	span("ladder.system", func() { res, err = sys.Run() })
	if err != nil {
		return err
	}
	info.detections = res.Detections
	info.laddered = true

	// The replay input: the same run retained (untimed).
	if cfg, err = engineConfig(&sc, engine.Retain, nil); err != nil {
		return err
	}
	if eng, err = engine.New(cfg); err != nil {
		return err
	}
	log := eng.Run()
	events := log.Events()
	info.replayEvents = int64(len(events))
	acc := metrics.NewAccumulator()
	info.replayAllocs = ac.count(func() {
		span("metrics.Accumulator.Append", func() {
			for _, e := range events {
				acc.Append(e)
			}
		})
	})
	var rep *metrics.Report
	span("metrics.Analyze", func() { rep = metrics.Analyze(log) })
	span("metrics.Report.Render", func() { _ = rep.Render() })
	return nil
}

// engineConfig wires the bare engine for a scenario without polling
// servers the way package sim does, minus the core facade.
func engineConfig(sc *scenario.Scenario, collect engine.Collect, sink trace.Sink) (engine.Config, error) {
	set, err := sc.TaskSet()
	if err != nil {
		return engine.Config{}, err
	}
	plan, err := sc.FaultPlan()
	if err != nil {
		return engine.Config{}, err
	}
	pol, err := engine.NewPolicy(sc.Policy)
	if err != nil {
		return engine.Config{}, err
	}
	sources, err := sc.TaskSources()
	if err != nil {
		return engine.Config{}, err
	}
	partition, err := sc.Partition()
	if err != nil {
		return engine.Config{}, err
	}
	return engine.Config{
		Tasks:         set,
		Sources:       sources,
		Faults:        plan,
		End:           vtime.Time(sc.Horizon),
		Policy:        pol,
		StopPoll:      sc.StopPoll.D(),
		StopJitterMax: sc.StopJitterMax.D(),
		Seed:          sc.Seed,
		ContextSwitch: sc.ContextSwitch.D(),
		CPUs:          sc.CPUs,
		Partition:     partition,
		Collect:       collect,
		Sink:          sink,
	}, nil
}

// probeLayers turns the probe spans and counts into per-layer metrics.
func probeLayers(spans []Span, infos map[int64]*docInfo) map[string]float64 {
	by := ByName(spans)
	out := map[string]float64{
		"scenario.decode_us":   by["scenario.Decode"].meanSelfUS(),
		"scenario.digest_us":   by["scenario.Digest"].meanSelfUS(),
		"sim.build_us":         by["sim.FromScenario"].meanSelfUS(),
		"sim.run_us":           by["System.Run"].meanSelfUS(),
		"sim.render_us":        by["RunResult.Summary"].meanSelfUS(),
		"analysis.feasible_us": by["analysis.Feasible"].meanSelfUS(),
		"metrics.analyze_us":   by["metrics.Analyze"].meanSelfUS(),
		"metrics.render_us":    by["metrics.Report.Render"].meanSelfUS(),
	}
	var decodeAllocs, digestAllocs uint64
	for _, in := range infos {
		decodeAllocs += in.decodeAllocs
		digestAllocs += in.digestAllocs
	}
	calls := float64(probeReps * len(infos))
	out["scenario.decode_allocs"] = ratio(float64(decodeAllocs), calls)
	out["scenario.digest_allocs"] = ratio(float64(digestAllocs), calls)

	// dur sums the durations of the spans named name over the documents
	// keep selects; sum does the same for a count.
	dur := func(name string, keep func(*docInfo) bool) float64 {
		var d time.Duration
		for _, s := range spans {
			if s.Name == name && keep(infos[s.Req]) {
				d += s.Dur()
			}
		}
		return float64(d)
	}
	sum := func(f func(*docInfo) int64, keep func(*docInfo) bool) float64 {
		var n int64
		for _, in := range infos {
			if keep(in) {
				n += f(in)
			}
		}
		return float64(n)
	}
	laddered := func(in *docInfo) bool { return in.laddered }
	admitted := func(in *docInfo) bool { return in.laddered && in.admitted }
	jobs := func(in *docInfo) int64 { return in.jobs }
	events := func(in *docInfo) int64 { return in.events }

	for _, cpus := range []int{1, 4, 8} {
		on := func(in *docInfo) bool { return in.laddered && in.cpus == cpus }
		out[fmt.Sprintf("engine.ns_per_event.cpus%d", cpus)] = ratio(dur("ladder.engine", on), sum(events, on))
	}
	allJobs := sum(jobs, laddered)
	out["engine.events_per_job"] = ratio(sum(events, laddered), allJobs)
	out["engine.switches_per_job"] = ratio(sum(func(in *docInfo) int64 { return in.switches }, laddered), allJobs)
	out["engine.migrations_per_job"] = ratio(sum(func(in *docInfo) int64 { return in.migrations }, laddered), allJobs)
	out["metrics.append_ns_per_event"] = ratio(dur("metrics.Accumulator.Append", laddered), sum(func(in *docInfo) int64 { return in.replayEvents }, laddered))
	out["metrics.allocs_per_job"] = ratio(sum(func(in *docInfo) int64 { return int64(in.replayAllocs) }, laddered), allJobs)
	out["metrics.ladder_ns_per_job"] = ratio(dur("ladder.engine+accumulator", laddered)-dur("ladder.engine", laddered), allJobs)
	admJobs := sum(jobs, admitted)
	out["core.self_ns_per_job"] = ratio(dur("ladder.system", admitted)-dur("ladder.engine+accumulator", admitted), admJobs)
	out["detect.detections_per_job"] = ratio(sum(func(in *docInfo) int64 { return in.detections }, admitted), admJobs)
	return out
}

// ratio is a/b, or 0 when nothing was measured (b = 0).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
