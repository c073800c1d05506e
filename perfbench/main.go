package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// metricSpec names one reported metric and its unit. The two tables
// below mirror BENCHMARK.json (a test pins the match).
type metricSpec struct{ name, unit string }

// endToEnd is what an untraced run reports. An operation is one served
// request on serve_*, one simulated job on batch_long.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"latency_ref_us", "us"},
	{"cpu_ref_us_per_op", "us"},
	{"alloc_b_per_op", "B"},
}

// perLayer is what a traced run reports.
var perLayer = []metricSpec{
	{"serve.handler_us", "us"},
	{"serve.hit_ratio", "ratio"},
	{"serve.sims_per_req", "count"},
	{"serve.throttled", "count"},
	{"client.self_us", "us"},
	{"client.rtt_p99_ms", "ms"},
	{"scenario.decode_us", "us"},
	{"scenario.decode_allocs", "count"},
	{"scenario.digest_us", "us"},
	{"scenario.digest_allocs", "count"},
	{"sim.build_us", "us"},
	{"sim.run_us", "us"},
	{"sim.render_us", "us"},
	{"analysis.feasible_us", "us"},
	{"engine.ns_per_event.cpus1", "ns"},
	{"engine.ns_per_event.cpus4", "ns"},
	{"engine.ns_per_event.cpus8", "ns"},
	{"engine.events_per_job", "count"},
	{"engine.switches_per_job", "count"},
	{"engine.migrations_per_job", "count"},
	{"metrics.append_ns_per_event", "ns"},
	{"metrics.allocs_per_job", "count"},
	{"metrics.ladder_ns_per_job", "ns"},
	{"metrics.analyze_us", "us"},
	{"metrics.render_us", "us"},
	{"core.self_ns_per_job", "ns"},
	{"detect.detections_per_job", "count"},
	{"runtime.gc_cpu_share", "ratio"},
	{"host.calib_ms", "ms"},
	{"overhead.latency_ref_us", "us"},
	{"overhead.cpu_ref_us_per_op", "us"},
	{"overhead.alloc_b_per_op", "B"},
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(runConfig, *outcome) error{
	"serve_hit":  runServeHit,
	"serve_miss": runServeMiss,
	"batch_long": runBatch,
}

type runConfig struct {
	workload string
	seed     uint64
	seconds  float64
	traced   bool
	spans    string // directory the traced run writes its spans to
}

// measure is the time one run measures for.
func (c runConfig) measure() time.Duration { return time.Duration(c.seconds * float64(time.Second)) }

// outcome collects one run's checks, metrics and report lines.
// attempted and fail are safe for concurrent use.
type outcome struct {
	attempted atomic.Int64

	mu    sync.Mutex
	fails failures

	setup  float64 // median set-up time as measured, s
	e2e    map[string]float64
	layers map[string]float64
	notes  []string
	rec    *Recorder
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layers: map[string]float64{}}
}

// fail counts a failed check (err non-nil).
func (o *outcome) fail(what string, err error) {
	if err == nil {
		return
	}
	o.mu.Lock()
	o.fails.add(what, err)
	o.mu.Unlock()
}

// setE2E records the untraced phase's end-to-end metrics, with the
// set-up time scaled to the reference host speed like the timings.
func (o *outcome) setE2E(m map[string]float64, scale float64) {
	for k, v := range m {
		o.e2e[k] = v
	}
	o.e2e["setup_s"] = o.setup * scale
}

func (o *outcome) setLayers(m map[string]float64) {
	for k, v := range m {
		o.layers[k] = v
	}
}

// overhead records the tracing overhead: the traced minus the untraced
// value of each end-to-end metric. Set-up is never traced, so setup_s
// has none.
func (o *outcome) overhead(traced map[string]float64) {
	for k, v := range traced {
		o.layers["overhead."+k] = v - o.e2e[k]
	}
}

func (o *outcome) notef(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// result assembles the run's result line. An end-to-end metric the run
// failed to measure is an error; a layer the workload's inputs never
// reach reads 0 and is named in the returned note.
func (o *outcome) result(traced bool) (result, string, error) {
	r := result{
		Attempted: o.attempted.Load(),
		Failed:    o.fails.n,
		Metrics:   map[string]metricValue{},
	}
	r.Correct = r.Failed == 0 && r.Attempted > 0
	specs, values := endToEnd, o.e2e
	if traced {
		specs, values = perLayer, o.layers
	}
	var absent []string
	for _, m := range specs {
		v, ok := values[m.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			if !traced {
				return r, "", fmt.Errorf("metric %s was not measured", m.name)
			}
			absent = append(absent, m.name)
			v = 0
		}
		r.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	note := ""
	if len(absent) > 0 {
		note = "not on this workload's path (reported as 0): " + strings.Join(absent, ", ")
	}
	return r, note, nil
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg runConfig
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "serve_hit | serve_miss | batch_long")
	fs.Uint64Var(&cfg.seed, "seed", 1, "workload seed: the same seed gives byte-identical inputs")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "measured time per run, in seconds")
	fs.IntVar(&trace, "trace", 0, "1: traced run, reporting per-layer metrics and the tracing overhead")
	fs.StringVar(&cfg.spans, "spans", filepath.Join(".bench_build", "spans"), "directory a traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	drive, ok := workloads[cfg.workload]
	if !ok || cfg.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(stderr, "perfbench: want --workload serve_hit|serve_miss|batch_long, --seconds > 0 and --trace 0|1\n")
		return 2
	}
	cfg.traced = trace == 1

	o := newOutcome()
	if err := drive(cfg, o); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	if o.rec != nil {
		path := filepath.Join(cfg.spans, fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
		err := os.MkdirAll(cfg.spans, 0o755)
		if err == nil {
			err = o.rec.WriteFile(path)
		}
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: writing spans: %v\n", cfg.workload, err)
			return 1
		}
		o.notef("spans: %s", path)
	}
	res, note, err := o.result(cfg.traced)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	if note != "" {
		o.notef("%s", note)
	}
	o.notef("fail_ratio %g (%d of %d checks failed)", ratio(float64(res.Failed), float64(res.Attempted)), res.Failed, res.Attempted)
	if cfg.traced {
		for _, m := range perLayer {
			o.notef("%-28s %14.4f %s", m.name, res.Metrics[m.name].Value, m.unit)
		}
	}
	for _, n := range o.notes {
		fmt.Fprintf(stdout, "%s: %s\n", cfg.workload, n)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		fmt.Fprintf(stderr, "perfbench: %s: %d of %d checks failed:\n  %s\n", cfg.workload, res.Failed, res.Attempted, strings.Join(o.fails.msgs, "\n  "))
		return 1
	}
	return 0
}
