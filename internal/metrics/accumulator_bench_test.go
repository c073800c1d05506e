package metrics_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/internal/vtime"
)

// figureLog retains the event log of a Figure 5-style run: the
// paper's figure system under the immediate-stop treatment, with τ1
// overrunning every third job so stops, misses and detections recur
// throughout the horizon.
func figureLog(tb testing.TB, horizon vtime.Duration) []trace.Event {
	tb.Helper()
	sys, err := core.NewSystem(core.Config{
		Tasks:           experiments.FigureSet(),
		Treatment:       detect.Stop,
		Faults:          fault.Plan{"tau1": fault.OverrunEvery{First: 1, K: 3, Extra: 45 * vtime.Millisecond}},
		Horizon:         horizon,
		TimerResolution: detect.DefaultTimerResolution,
	})
	if err != nil {
		tb.Fatal(err)
	}
	res, err := sys.Run()
	if err != nil {
		tb.Fatal(err)
	}
	return res.Log.Events()
}

// BenchmarkAccumulatorAppend prices the streamed metrics layer on its
// own: one op replays a retained figure run's events into a fresh
// Accumulator. ns/event is the per-event cost; allocs/op is the whole
// replay's, so a per-job allocation shows up as thousands.
func BenchmarkAccumulatorAppend(b *testing.B) {
	events := figureLog(b, 60*vtime.Second)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc := metrics.NewAccumulator()
		for _, e := range events {
			acc.Append(e)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(events)), "ns/event")
	b.ReportMetric(float64(len(events)), "events")
}
