// Command perfbench is the repository's benchmark. It drives the
// simulator the way its users do — an in-process rtserved answering
// loopback HTTP, and serial batch runs through package sim — checks
// every output, and prints the end-to-end metrics or, in a traced run,
// the per-layer metrics.
//
// Run it from the repository root through run.sh, which builds it from
// source into .bench_build:
//
//	bash perfbench/run.sh --workload serve_hit --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics (name → value and unit). The
// lines before it are for people: the hash of the input documents, the
// figures behind each metric, the fail ratio, and in a traced run one
// line per layer metric. A failed check makes the command exit 1 and
// name the workload and the first failures on standard error.
//
// # Workloads
//
// The seed decides every input; the program receives only the
// generated documents. Generating inputs and computing the expected
// outputs are never timed.
//
// serve_hit: serve.New with the default config (GOMAXPROCS workers, a
// queue of twice that) behind a loopback listener, driven from the same
// process by GOMAXPROCS closed-loop clients. Each client owns one
// keep-alive connection and sends its next POST
// /v1/simulate?format=report only after the previous reply: the
// service's callers (sweep tools, rtload, scripts) wait for their
// reply. The bodies are the committed testdata/scenarios documents,
// byte for byte, plus 24 seeded gen.Scenario documents, all primed
// during set-up, so every timed request is a cache hit: decode, digest,
// cache lookup and HTTP, and no simulation.
//
// serve_miss: the same server and clients, but every request is a
// distinct gen.Scenario document (five policies, every treatment, fault
// chains, polling servers, 1–8 cores, open arrivals, both collection
// modes), so every one is a cache miss that runs a simulation and
// inserts into the cache, evicting past 1,024 entries. It is left out
// of BENCHMARK.json; see "Known defect" below.
//
// batch_long: a seeded serial list of eight long-horizon streamed
// scenarios, with no JSON and no HTTP. Four are admitted uniprocessor
// fixed-priority systems with detectors (stop, equitable, system, stop
// treatments) and a recurring overrun: they run core → detect → engine
// → metrics.Accumulator. Four are global multiprocessor systems (edf and
// fixed-priority on 4 and 8 cores) with a recurring overrun: they run
// the engine's global dispatcher. Every scenario carries a fault, so
// none is eligible for fast-forward, and each releases about 50,000
// jobs. Set-up builds the systems (sim.FromScenario); the timed phase
// runs the list in passes (System.Run and RunResult.Summary).
//
// # End-to-end metrics
//
// An operation is one served request (serve_*) or one simulated job
// (batch_long).
//
//	setup_s            median of several set-ups in the run, scaled to
//	                   the reference host speed. serve_*: serve.New until
//	                   /healthz answers (serve_hit: plus priming one
//	                   request per document); batch_long: the
//	                   sim.FromScenario calls for the list.
//	latency_ref_us     serve_*: median client round trip; batch_long:
//	                   median over passes of wall time per simulated job.
//	                   Scaled to the reference host speed.
//	cpu_ref_us_per_op  median over windows (250 ms of a served phase, or
//	                   one batch pass) of process user+system CPU
//	                   (getrusage, clients included) per successful
//	                   operation, scaled to the reference host speed.
//	                   Capacity is GOMAXPROCS divided by the unscaled value.
//	alloc_b_per_op     heap bytes allocated per successful operation over
//	                   the whole timed phase (runtime/metrics).
//
// Reference host speed: on a shared host other tenants slow every
// instruction by a fifth or more, in phases that last minutes, so runs
// of the same program minutes apart differ by more than the changes
// worth measuring. Between its windows — after every 1 s segment of a
// served phase, on every CPU at once, and after every scenario run of a
// batch pass, on one — the benchmark runs a fixed loop that uses only
// the standard library (a binary heap, a string-keyed map, small
// allocations), after a garbage collection, and reads the loop's thread
// CPU time. The loop slows in step with the program. Each timing is
// multiplied by refCalib (10 ms) over the loop's median time: it is the
// timing the run would show on a host where the loop takes 10 ms. The
// lines before the result print the figures as measured — set-up time,
// median and p99 round trip with the sample count, CPU per request,
// simulated jobs per wall second, CPU and bytes per job — and the
// loop's median time.
//
// The fail ratio (failed checks over attempted ones) is printed and is
// the result line's failed/attempted; it is not a bounded metric,
// because it is 0 whenever the program is correct.
//
// # Checks
//
// Every served response must be byte-equal to the Summary() of a local
// sim.FromScenario(sc).Run() on the same document, computed outside the
// timed phase; X-Scenario-Digest must equal the local Digest(); X-Cache
// must be "hit" on every serve_hit request after priming and "miss" on
// every serve_miss request; the status must be 200 (a 429 fails).
// Every batch_long report must equal a rerun of its scenario, outside
// the timed phase, with System.SetVerify(true), and that rerun must
// report no oracle violation.
//
// # Per-layer metrics (traced run)
//
// A traced run (--trace 1) measures an untraced phase and a traced
// phase of half the time each. It reports the tracing overhead as the
// traced minus the untraced value of each end-to-end metric
// (overhead.*; set-up is never traced, so setup_s has none). Spans are
// recorded by this package around calls into each layer's public
// functions — the program itself is not instrumented — kept in memory
// and written to .bench_build/spans when the run ends. Spans of one
// request or probed document share an id; a layer's self time is its
// span's duration minus what its child spans cover (SelfTimes).
//
// The served phase records a client.request span per request and a
// serve.ServeHTTP child around Server.ServeHTTP. batch_long, which
// does not go through the server, measures the served layers with a
// probe instead: its documents primed once, then served as cache hits
// in a traced closed loop for one second. After the timed phases, the
// probes replay the workload's own documents (serve_hit: all of them;
// serve_miss: the first 200 sent in the timed phases; batch_long: the
// list) through each layer, one span per call.
//
// Each layer metric, what measures it, the end-to-end metric it should
// move, and on which workload:
//
//	internal/serve: serve.handler_us — span around Server.ServeHTTP —
//	  latency_ref_us and cpu_ref_us_per_op; serve_hit most, serve_miss.
//	internal/serve: serve.hit_ratio, serve.sims_per_req, serve.throttled —
//	  Server.Metrics() deltas over the traced phase — preconditions (hit
//	  ratio 1 on serve_hit, 0 on serve_miss) and the fail ratio.
//	client: client.self_us (client span minus its handler child),
//	  client.rtt_p99_ms (diagnostic only) — latency_ref_us; serve_*.
//	sim/scenario: scenario.decode_us, scenario.decode_allocs,
//	  scenario.digest_us, scenario.digest_allocs — scenario.Decode and
//	  Scenario.Digest on the workload's documents — latency_ref_us and
//	  cpu_ref_us_per_op; serve_hit most, serve_miss little, batch_long none.
//	sim: sim.build_us, sim.run_us, sim.render_us — sim.FromScenario,
//	  System.Run, RunResult.Summary — cpu_ref_us_per_op; serve_miss,
//	  batch_long.
//	internal/analysis: analysis.feasible_us — analysis.Feasible on the
//	  admitted task sets — cpu_ref_us_per_op; serve_miss.
//	internal/engine: engine.ns_per_event.cpus1, .cpus4, .cpus8 — ladder
//	  step 1 — cpu_ref_us_per_op and latency_ref_us; batch_long, serve_miss
//	  little, serve_hit none.
//	internal/engine: engine.events_per_job, engine.switches_per_job,
//	  engine.migrations_per_job — the counting sink and Engine.Switches —
//	  counts that must not change under a simulator-only speed-up;
//	  batch_long.
//	internal/metrics: metrics.append_ns_per_event, metrics.allocs_per_job
//	  — a retained run's events replayed into Accumulator.Append —
//	  cpu_ref_us_per_op and alloc_b_per_op; batch_long.
//	internal/metrics: metrics.ladder_ns_per_job — ladder step 2 minus
//	  step 1 — cpu_ref_us_per_op; batch_long.
//	internal/metrics: metrics.analyze_us, metrics.render_us —
//	  metrics.Analyze on the retained log and Report.Render —
//	  cpu_ref_us_per_op; serve_miss.
//	internal/core and internal/detect: core.self_ns_per_job,
//	  detect.detections_per_job — ladder step 3 minus step 2 on admitted
//	  uniprocessor documents, RunResult.Detections — cpu_ref_us_per_op;
//	  batch_long.
//	Go runtime: runtime.gc_cpu_share — runtime/metrics /cpu/classes/gc —
//	  cpu_ref_us_per_op; batch_long, serve_miss.
//	host: host.calib_ms — the calibration loop's median time — none: it
//	  is the host's speed, by which the timings are scaled.
//	tracing: overhead.latency_ref_us, overhead.cpu_ref_us_per_op,
//	  overhead.alloc_b_per_op — traced minus untraced phase.
//
// The ladder runs on a streamed copy of each document without polling
// servers: (1) engine.New and Run with a counting trace.Sink, (2) the
// engine feeding a metrics.Accumulator, (3) the full System.Run. Per-job
// figures divide by the jobs step 1 released. On admitted documents the
// detectors of step 3 also change the event stream (a stopped job emits
// fewer events), so core.self_ns_per_job is the cost of core and detect
// including that difference. A core count none of the workload's
// documents uses reads 0, and the run names it.
//
// # Known defect
//
// detect.Supervisor.Attach arms the detectors by ranging over a map,
// so detectors that fire at the same instant run in an order that
// changes from run to run. When the treatment stops jobs and the
// scenario draws stop jitter, the jitter draws follow that order, and
// the same document yields different reports: gen.Scenario documents
// with this property are about 2 in 10,000. serve_miss sends tens of
// thousands of them per run, so its byte-equality check fails in most
// runs; the check is kept as it is and serve_miss stays runnable by
// name, but it is left out of BENCHMARK.json until the detector order
// is made deterministic. serve_hit's 24 generated documents carry the
// same risk for about 6 seeds in 1,000.
package main
