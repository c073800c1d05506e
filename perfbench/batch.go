package main

import (
	"fmt"
	"time"

	"repro/sim"
	"repro/sim/scenario"
)

// batchSetupReps is how many times batch_long builds its systems; the
// reported setup_s is the median.
const batchSetupReps = 51

// batchPass is one serial pass over the list: its window, each
// scenario's report (or run error), and the host-speed calibration run
// after it.
type batchPass struct {
	w       window
	reports []string
	errs    []error
	calib   []float64
}

// runPass runs every system once, serially, rendering each report, and
// calibrates the host's speed after each run (outside the pass's
// window). With rec non-nil each run records a root span with
// System.Run and RunResult.Summary children.
func runPass(systems []*sim.System, rec *Recorder) batchPass {
	bp := batchPass{reports: make([]string, len(systems)), errs: make([]error, len(systems))}
	for i, sys := range systems {
		u := readUsage()
		var root int64
		var t0 time.Duration
		if rec != nil {
			root, t0 = rec.NewID(), rec.Now()
		}
		res, err := sys.Run()
		var t1 time.Duration
		if rec != nil {
			t1 = rec.Now()
			rec.Add(Span{ID: rec.NewID(), Parent: root, Req: root, Name: "System.Run", Start: t0, End: t1})
		}
		if err != nil {
			bp.errs[i] = err
			continue
		}
		bp.reports[i] = res.Summary()
		if rec != nil {
			t2 := rec.Now()
			rec.Add(Span{ID: rec.NewID(), Parent: root, Req: root, Name: "RunResult.Summary", Start: t1, End: t2})
			rec.Add(Span{ID: root, Req: root, Name: "batch.run", Start: t0, End: t2})
		}
		bp.w = total([]window{bp.w, u.since(float64(res.Report.TotalReleased()))})
		bp.calib = append(bp.calib, calibrate(1)...)
	}
	return bp
}

// runBatch: a seeded serial list of long-horizon streamed scenarios,
// run in passes; every report must equal an oracle-checked rerun.
func runBatch(cfg runConfig, o *outcome) error {
	list, err := batchList(cfg.seed)
	if err != nil {
		return err
	}
	docs := make([][]byte, len(list))
	for i := range list {
		if docs[i], err = marshal(list[i]); err != nil {
			return err
		}
	}
	o.notef("inputs: %d scenarios of ~%d jobs each, sha256 %s", len(list), batchJobs, inputHash(docs))

	var systems []*sim.System
	var setups []float64
	for k := 0; k < batchSetupReps; k++ {
		t0 := time.Now()
		systems = systems[:0]
		for _, sc := range list {
			sys, err := sim.FromScenario(sc)
			if err != nil {
				return fmt.Errorf("%s: %w", sc.Name, err)
			}
			systems = append(systems, sys)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	o.setup = median(setups)

	passes := []batchPass{runPass(systems, nil)} // warm-up, checked but not measured
	timed := func(d time.Duration, rec *Recorder) []batchPass {
		var ps []batchPass
		for start := time.Now(); time.Since(start) < d; {
			ps = append(ps, runPass(systems, rec))
		}
		passes = append(passes, ps...)
		return ps
	}
	measure := cfg.measure()
	if cfg.traced {
		measure /= 2
	}
	ps := timed(measure, nil)
	ws, calib := batchWindows(ps)
	o.setE2E(batchE2E(ps), speedScale(calib))
	o.notef("as measured: setup_s %.6f s  sim_jobs_per_s %.0f jobs/s  cpu_ns_per_job %.1f ns  alloc_bytes_per_job %.2f B  (medians of %d passes)  calibration %.2f ms",
		o.setup, median(jobRates(ws)), median(perOp(ws, cpuUS))*1e3, o.e2e["alloc_b_per_op"], len(ps), median(calib))
	if cfg.traced {
		o.rec = NewRecorder()
		g0 := readRuntime()
		tps := timed(measure, o.rec)
		g1 := readRuntime()
		o.overhead(batchE2E(tps))
		_, calib := batchWindows(tps)
		o.setLayers(map[string]float64{
			"runtime.gc_cpu_share": ratio(g1.gcCPU-g0.gcCPU, g1.totalCPU-g0.totalCPU),
			"host.calib_ms":        median(calib),
		})
	}

	// The check: rerun each scenario under the online invariant oracle,
	// outside the timed phases, and compare every report with it.
	for i, sc := range list {
		rerun, rerr := verifiedRun(sc)
		for _, bp := range passes {
			o.attempted.Add(1)
			if bp.errs[i] != nil {
				o.fail(sc.Name, fmt.Errorf("run: %w", bp.errs[i]))
				continue
			}
			o.fail(sc.Name, checkBatch(bp.reports[i], rerun, rerr))
		}
	}
	if !cfg.traced {
		return nil
	}
	if err := probe(o, docs); err != nil {
		return err
	}
	return serveProbe(o, docs)
}

// verifiedRun reruns a scenario with System.SetVerify(true): any
// scheduling-axiom violation fails the run.
func verifiedRun(sc scenario.Scenario) (string, error) {
	sys, err := sim.FromScenario(sc)
	if err != nil {
		return "", err
	}
	sys.SetVerify(true)
	res, err := sys.Run()
	if err != nil {
		return "", err
	}
	return res.Summary(), nil
}

// batchE2E computes batch_long's end-to-end metrics. An operation is
// one simulated job: the median over passes of the wall and CPU time
// per job, scaled to the reference host speed, and the allocation per
// job over all passes.
func batchE2E(ps []batchPass) map[string]float64 {
	ws, calib := batchWindows(ps)
	scale := speedScale(calib)
	t := total(ws)
	return map[string]float64{
		"latency_ref_us":    median(perOp(ws, wallUS)) * scale,
		"cpu_ref_us_per_op": median(perOp(ws, cpuUS)) * scale,
		"alloc_b_per_op":    allocB(t) / t.ops,
	}
}

// jobRates is each pass's simulated jobs per wall second.
func jobRates(ws []window) []float64 {
	var xs []float64
	for _, w := range ws {
		xs = append(xs, w.ops/w.wall.Seconds())
	}
	return xs
}

// batchWindows lists the passes' windows and calibration times.
func batchWindows(ps []batchPass) ([]window, []float64) {
	var ws []window
	var calib []float64
	for _, bp := range ps {
		ws = append(ws, bp.w)
		calib = append(calib, bp.calib...)
	}
	return ws, calib
}
