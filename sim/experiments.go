package sim

import (
	"context"
	"fmt"

	"repro/internal/experiments"
	"repro/internal/vtime"
)

// The paper's tables, figures and extension sweeps as registry
// entries, in the order cmd/rtexp has always printed them. Each entry
// delegates to internal/experiments or to this package's differential
// sweeps, so a registry-driven run is byte-identical to the direct
// calls (pinned by TestRegistryMatchesDirectCalls).

func init() {
	register("table1", "Table 1 / Figure 1 — per-job response times; the worst case is not the critical-instant job",
		fixed(experiments.Table1), experiments.RenderTable1)
	register("table2", "Table 2 — the tested task system: WCRTs, equitable allowance and per-task maximum overrun",
		fixed(experiments.Table2), experiments.RenderTable2)
	register("table3", "Table 3 — worst-case response times when every task overruns by the equitable allowance",
		fixed(experiments.Table3), experiments.RenderTable3)
	for _, fig := range []experiments.Figure{
		experiments.Figure3, experiments.Figure4, experiments.Figure5,
		experiments.Figure6, experiments.Figure7,
	} {
		RegisterExperiment(NewExperiment(fmt.Sprintf("fig%d", int(fig)), fig.Title(),
			func(context.Context, RunOptions) (Result, error) {
				outcome, text, err := experiments.FigureArtefact(fig, "")
				if err != nil {
					return Result{}, err
				}
				return Result{Data: outcome, Text: text}, nil
			}))
	}
	register("x1", "X1 — detector overhead vs task count (the paper's §6.2 sensor-count remark, quantified)",
		func(ctx context.Context, opt RunOptions) ([]experiments.OverheadPoint, error) {
			return experiments.DetectorOverheadSweepCtx(ctx, []int{2, 4, 8, 16}, 7, opt)
		}, experiments.RenderOverhead)
	register("x2", "X2 — success ratio vs fault magnitude, generalizing Figures 3–7 over every treatment",
		func(ctx context.Context, opt RunOptions) ([]experiments.SweepPoint, error) {
			return experiments.FaultMagnitudeSweepCtx(ctx, vtime.Millis(60), vtime.Millis(5), opt)
		}, experiments.RenderSweep)
	register("x3", "X3 — detector timer-resolution sensitivity of the Figure 5–7 treatments",
		experiments.TimerResolutionSweepCtx, experiments.RenderResolution)
	register("x9", "X9 — blocking versus allowance trade-off on the Table 2 system (paper §7)",
		fixed(experiments.BlockingSweep), func(text string) string { return text })
	register("x5", "X5 — acceptance ratio of Liu–Layland, hyperbolic and exact admission tests vs utilization",
		func(ctx context.Context, opt RunOptions) ([]experiments.AcceptancePoint, error) {
			return experiments.AcceptanceSweepCtx(ctx, []float64{0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}, 200, 5, 11, opt)
		}, experiments.RenderAcceptance)
	register("x4", "X4 — the paper's admission-control-plus-detectors approach vs overload schedulers",
		func(ctx context.Context, opt RunOptions) ([]experiments.BaselinePoint, error) {
			return experiments.BaselineComparisonCtx(ctx, vtime.Millis(50), 6*vtime.Second, opt)
		}, experiments.RenderBaselines)
	register("x10", "X10 — engine events/sec and switches vs task count (10..500 tasks, 60s horizon)",
		func(ctx context.Context, opt RunOptions) ([]experiments.ScalingPoint, error) {
			return experiments.TaskScalingSweepCtx(ctx, experiments.ScalingSizes, experiments.ScalingHorizon, opt)
		}, experiments.RenderScaling)
	register("x11", "X11 — differential invariant sweep: fuzzed scenarios property-verified in both collection modes",
		seeded(DifferentialSweep, DifferentialSeed, DifferentialCount), RenderDifferential)
	register("x12", "X12 — process-sharded sweep: streamed worker accumulators reproduce serial reports exactly",
		seeded(ShardDifferentialSweep, ShardSeed, ShardCount), RenderShardDifferential)
	register("x13", "X13 — multiprocessor differential sweep: global vs partitioned dispatch under the invariant oracle",
		seeded(MulticoreSweep, MulticoreSeed, MulticoreCount), RenderMulticore)
	register("x14", "X14 — fast-forward differential sweep: analytic hyperperiod jumps vs oracle-verified full runs",
		seeded(FastForwardSweep, FastForwardSeed, FastForwardCount), RenderFastForward)
	register("x15", "X15 — open-arrivals differential sweep: Poisson/MMPP/trace sources oracle-verified, retain vs stream",
		seeded(OpenArrivalsSweep, OpenArrivalsSeed, OpenArrivalsCount), RenderOpenArrivals)
}

// register adds one registry entry: run produces the structured
// artefact and render its text form.
func register[T any](name, description string, run func(context.Context, RunOptions) (T, error), render func(T) string) {
	RegisterExperiment(NewExperiment(name, description, func(ctx context.Context, opt RunOptions) (Result, error) {
		data, err := run(ctx, opt)
		if err != nil {
			return Result{}, err
		}
		return Result{Data: data, Text: render(data)}, nil
	}))
}

// fixed adapts an artefact that takes no run options (the tables, x9).
func fixed[T any](run func() (T, error)) func(context.Context, RunOptions) (T, error) {
	return func(context.Context, RunOptions) (T, error) { return run() }
}

// seeded adapts a differential sweep to its default seed and count.
func seeded[P any](run func(context.Context, uint64, int, RunOptions) ([]P, error), base uint64, n int) func(context.Context, RunOptions) ([]P, error) {
	return func(ctx context.Context, opt RunOptions) ([]P, error) { return run(ctx, base, n, opt) }
}
