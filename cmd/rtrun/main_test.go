package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/trace"
	"repro/internal/vtime"
	"repro/sim"
)

// TestScenarioRunEndToEnd drives rtrun -scenario on a committed spec:
// the log on stdout must decode, and the summary on stderr must
// mention every task.
func TestScenarioRunEndToEnd(t *testing.T) {
	var stdout, stderr bytes.Buffer
	scen := filepath.Join("..", "..", "testdata", "scenarios", "figure5.json")
	if code := run([]string{"-scenario", scen}, &stdout, &stderr); code != 0 {
		t.Fatalf("rtrun -scenario exited %d: %s", code, stderr.String())
	}
	log, err := trace.Decode(&stdout)
	if err != nil {
		t.Fatalf("stdout is not a decodable trace log: %v", err)
	}
	if log.Len() == 0 {
		t.Fatal("empty trace log")
	}
	for _, task := range []string{"tau1", "tau2", "tau3"} {
		if len(log.TaskEvents(task)) == 0 {
			t.Errorf("no events for %s", task)
		}
		if !bytes.Contains(stderr.Bytes(), []byte(task)) {
			t.Errorf("summary missing %s:\n%s", task, stderr.String())
		}
	}
}

// TestScenarioMatchesLegacyFlags: the same run expressed as -tasks
// plus flags and as a scenario file emits the identical log.
func TestScenarioMatchesLegacyFlags(t *testing.T) {
	var legacyOut, legacyErr, scenOut, scenErr bytes.Buffer
	tasks := filepath.Join("..", "..", "testdata", "figures.tasks")
	if code := run([]string{
		"-tasks", tasks, "-treatment", "stop", "-horizon", "1500",
		"-fault", "tau1:5:40", "-resolution", "10",
	}, &legacyOut, &legacyErr); code != 0 {
		t.Fatalf("legacy run exited %d: %s", code, legacyErr.String())
	}
	scen := filepath.Join("..", "..", "testdata", "scenarios", "figure5.json")
	if code := run([]string{"-scenario", scen}, &scenOut, &scenErr); code != 0 {
		t.Fatalf("scenario run exited %d: %s", code, scenErr.String())
	}
	if legacyOut.String() != scenOut.String() {
		t.Error("scenario log differs from the equivalent -tasks run")
	}
}

func TestExclusiveFlags(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(nil, &stdout, &stderr); code != 2 {
		t.Errorf("no input exited %d, want 2", code)
	}
	if code := run([]string{"-tasks", "a", "-scenario", "b"}, &stdout, &stderr); code != 2 {
		t.Errorf("both inputs exited %d, want 2", code)
	}
	// Legacy run-shape flags would be silently ignored next to
	// -scenario; they must be rejected instead.
	scen := filepath.Join("..", "..", "testdata", "scenarios", "figure5.json")
	for _, extra := range [][]string{
		{"-treatment", "none"},
		{"-horizon", "9000"},
		{"-fault", "tau1:5:40"},
		{"-resolution", "0"},
	} {
		stderr.Reset()
		args := append([]string{"-scenario", scen}, extra...)
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("%v exited %d, want 2", args, code)
		}
		if !strings.Contains(stderr.String(), extra[0][1:]) {
			t.Errorf("error must name the conflicting flag %s: %s", extra[0], stderr.String())
		}
	}
}

func TestParseFaults(t *testing.T) {
	faults, err := parseFaults("tau1:5:40,tau2:0:10")
	if err != nil {
		t.Fatal(err)
	}
	if len(faults) != 2 {
		t.Fatalf("faults = %+v, want 2 entries", faults)
	}
	f := faults[0]
	if f.Task != "tau1" || f.Kind != sim.FaultOverrunAt || f.Job != 5 || f.Extra.D() != vtime.Millis(40) {
		t.Errorf("tau1 fault = %+v", f)
	}
	if faults[1].Task != "tau2" {
		t.Errorf("tau2 fault = %+v", faults[1])
	}
	empty, err := parseFaults("")
	if err != nil || empty != nil {
		t.Errorf("empty spec: %v, %v", empty, err)
	}
	for _, bad := range []string{"tau1:5", "tau1:x:40", "tau1:5:x", "justname"} {
		if _, err := parseFaults(bad); err == nil {
			t.Errorf("spec %q must error", bad)
		}
	}
}

func TestParseArrivals(t *testing.T) {
	arrivals, err := parseArrivals("tau1:poisson:30:7,tau2:mmpp:60:8:400:150,tau3:trace:run.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	if len(arrivals) != 3 {
		t.Fatalf("arrivals = %+v, want 3 entries", arrivals)
	}
	p := arrivals[0]
	if p.Task != "tau1" || p.Kind != sim.ArrivalPoisson || p.Mean.D() != vtime.Millis(30) || p.Seed != 7 {
		t.Errorf("poisson arrival = %+v", p)
	}
	m := arrivals[1]
	if m.Kind != sim.ArrivalMMPP || m.Mean.D() != vtime.Millis(60) || m.BurstMean.D() != vtime.Millis(8) ||
		m.Dwell.D() != vtime.Millis(400) || m.BurstDwell.D() != vtime.Millis(150) || m.Seed != 0 {
		t.Errorf("mmpp arrival = %+v", m)
	}
	tr := arrivals[2]
	if tr.Kind != sim.ArrivalTrace || tr.Path != "run.jsonl" {
		t.Errorf("trace arrival = %+v", tr)
	}
	empty, err := parseArrivals("")
	if err != nil || empty != nil {
		t.Errorf("empty spec: %v, %v", empty, err)
	}
	for _, bad := range []string{
		"tau1:poisson",        // missing mean
		"tau1:poisson:0",      // non-positive mean
		"tau1:poisson:x",      // non-numeric mean
		"tau1:poisson:30:7:9", // trailing field
		"tau1:mmpp:60:8:400",  // missing burst dwell
		"tau1:uniform:30",     // unknown kind
		":poisson:30",         // empty task
	} {
		if _, err := parseArrivals(bad); err == nil {
			t.Errorf("spec %q must error", bad)
		}
	}
	// A colonful trace path must survive the field split intact.
	colonful, err := parseArrivals("tau1:trace:C:/runs/run.jsonl")
	if err != nil || colonful[0].Path != "C:/runs/run.jsonl" {
		t.Errorf("colonful path: %+v, %v", colonful, err)
	}
}

// TestArriveFlagEndToEnd drives rtrun -arrive under the oracle: the
// poisson-driven task must release per its source (verified by
// -check) and still appear in the summary, and -arrive must conflict
// with -scenario like the other run-shape flags.
func TestArriveFlagEndToEnd(t *testing.T) {
	tasks := filepath.Join("..", "..", "testdata", "figures.tasks")
	var stdout, stderr bytes.Buffer
	if code := run([]string{
		"-tasks", tasks, "-arrive", "tau1:poisson:50:3", "-check",
	}, &stdout, &stderr); code != 0 {
		t.Fatalf("rtrun -arrive exited %d: %s", code, stderr.String())
	}
	if !bytes.Contains(stderr.Bytes(), []byte("tau1")) {
		t.Errorf("summary missing tau1:\n%s", stderr.String())
	}
	// Trace replay through the file path front door.
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "run.jsonl")
	if err := os.WriteFile(tracePath, []byte(
		"{\"release\":\"100ms\",\"cost\":\"5ms\"}\n{\"release\":\"900ms\",\"cost\":\"5ms\",\"deadline\":\"50ms\"}\n",
	), 0o644); err != nil {
		t.Fatal(err)
	}
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{
		"-tasks", tasks, "-arrive", "tau2:trace:" + tracePath, "-check",
	}, &stdout, &stderr); code != 0 {
		t.Fatalf("rtrun -arrive trace exited %d: %s", code, stderr.String())
	}
	log, err := trace.Decode(&stdout)
	if err != nil {
		t.Fatalf("stdout is not a decodable trace log: %v", err)
	}
	if got := len(log.TaskEvents("tau2")); got == 0 {
		t.Error("no events for the trace-driven task")
	}
	// -arrive redefines the run shape, so it conflicts with -scenario.
	stderr.Reset()
	scen := filepath.Join("..", "..", "testdata", "scenarios", "figure5.json")
	if code := run([]string{"-scenario", scen, "-arrive", "tau1:poisson:30"}, &stdout, &stderr); code != 2 {
		t.Errorf("-scenario with -arrive exited %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "arrive") {
		t.Errorf("error must name -arrive: %s", stderr.String())
	}
}

// TestRepeatedFaultsCompose: two -fault entries on one task must both
// take effect (chained), matching the scenario-JSON semantics.
func TestRepeatedFaultsCompose(t *testing.T) {
	faults, err := parseFaults("tau1:2:10,tau1:5:40")
	if err != nil {
		t.Fatal(err)
	}
	sys, err := sim.New(
		sim.WithTaskFile(filepath.Join("..", "..", "testdata", "figures.tasks")),
		sim.WithHorizon(vtime.Millis(1500)),
		sim.WithFaults(faults...),
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	// tau1 jobs release every 200 ms with cost 29, deadline 70: job 2
	// (overrun 10 → response 39ms) stays feasible but slower, job 5
	// (overrun 40 → 69ms) nearly exhausts the deadline.
	for q, want := range map[int64]vtime.Duration{2: vtime.Millis(39), 5: vtime.Millis(69)} {
		j, ok := res.Report.Job("tau1", q)
		if !ok || j.Response() != want {
			t.Errorf("tau1 job %d response = %v (ok=%v), want %v", q, j.Response(), ok, want)
		}
	}
}

func TestHelpExitsZero(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-h"}, &stdout, &stderr); code != 0 {
		t.Errorf("rtrun -h exited %d, want 0", code)
	}
}

// TestStreamTraceOutMatchesRetainedLog: the -stream -trace-out spill
// is byte-identical to the log of the same retained run, and the
// summary still prints from the online accumulator.
func TestStreamTraceOutMatchesRetainedLog(t *testing.T) {
	tasks := filepath.Join("..", "..", "testdata", "figures.tasks")
	base := []string{"-tasks", tasks, "-treatment", "stop", "-horizon", "1500",
		"-fault", "tau1:5:40", "-resolution", "10"}

	var retainOut, retainErr bytes.Buffer
	if code := run(base, &retainOut, &retainErr); code != 0 {
		t.Fatalf("retained run exited %d: %s", code, retainErr.String())
	}

	var streamOut, streamErr bytes.Buffer
	args := append(append([]string{}, base...), "-stream", "-trace-out", "-")
	if code := run(args, &streamOut, &streamErr); code != 0 {
		t.Fatalf("streaming run exited %d: %s", code, streamErr.String())
	}
	if streamOut.String() != retainOut.String() {
		t.Error("streamed trace differs from the retained log")
	}
	if streamErr.String() != retainErr.String() {
		t.Errorf("streaming summary differs:\n--- stream ---\n%s--- retain ---\n%s",
			streamErr.String(), retainErr.String())
	}
}

// TestStreamWithoutTraceOutDiscards: -stream alone writes no log to
// stdout but still summarizes.
func TestStreamWithoutTraceOutDiscards(t *testing.T) {
	tasks := filepath.Join("..", "..", "testdata", "figures.tasks")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-tasks", tasks, "-horizon", "1500", "-stream"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exited %d: %s", code, stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("-stream without -trace-out must write nothing to stdout, got %d bytes", stdout.Len())
	}
	if !strings.Contains(stderr.String(), "tau1") {
		t.Errorf("summary missing: %s", stderr.String())
	}
}

// TestStreamFlagConflicts: -stream contradicts -scenario (the collect
// block owns it), -o is meaningless under streaming, and -trace-out
// needs a streaming run.
func TestStreamFlagConflicts(t *testing.T) {
	tasks := filepath.Join("..", "..", "testdata", "figures.tasks")
	scen := filepath.Join("..", "..", "testdata", "scenarios", "figure5.json")
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-scenario", scen, "-stream"}, "stream"},
		{[]string{"-tasks", tasks, "-stream", "-o", "x.log"}, "-o"},
		{[]string{"-tasks", tasks, "-trace-out", "x.log"}, "-trace-out"},
		{[]string{"-scenario", scen, "-trace-out", "x.log"}, "-trace-out"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != 2 {
			t.Errorf("%v exited %d, want 2", tc.args, code)
		}
		if !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("%v: error must mention %q: %s", tc.args, tc.want, stderr.String())
		}
	}
}

// TestScenarioStreamingCollectBlock: a scenario declaring the collect
// block streams end to end through the CLI, spilling via -trace-out.
func TestScenarioStreamingCollectBlock(t *testing.T) {
	scen := filepath.Join("..", "..", "testdata", "scenarios", "stream-soak.json")
	out := filepath.Join(t.TempDir(), "soak.log")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-scenario", scen, "-trace-out", out}, &stdout, &stderr); code != 0 {
		t.Fatalf("exited %d: %s", code, stderr.String())
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	log, err := trace.Decode(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("spilled trace does not decode: %v", err)
	}
	if log.Len() == 0 {
		t.Fatal("empty spilled trace")
	}
}

// TestCheckFlag: -check arms the invariant oracle on both front
// doors; clean runs still exit 0 with identical logs.
func TestCheckFlag(t *testing.T) {
	scen := filepath.Join("..", "..", "testdata", "scenarios", "figure5.json")
	var plain, checked, stderr bytes.Buffer
	if code := run([]string{"-scenario", scen}, &plain, &stderr); code != 0 {
		t.Fatalf("plain run exited %d: %s", code, stderr.String())
	}
	stderr.Reset()
	if code := run([]string{"-scenario", scen, "-check"}, &checked, &stderr); code != 0 {
		t.Fatalf("checked run exited %d: %s", code, stderr.String())
	}
	if plain.String() != checked.String() {
		t.Error("-check changed the emitted log")
	}
	stderr.Reset()
	tasks := filepath.Join("..", "..", "testdata", "figures.tasks")
	var out bytes.Buffer
	if code := run([]string{
		"-tasks", tasks, "-treatment", "stop", "-horizon", "1500",
		"-fault", "tau1:5:40", "-resolution", "10", "-check",
	}, &out, &stderr); code != 0 {
		t.Fatalf("legacy -check run exited %d: %s", code, stderr.String())
	}
	stderr.Reset()
	out.Reset()
	// -check composes with streaming collection too (the oracle is a
	// sink, not a log consumer).
	if code := run([]string{
		"-tasks", tasks, "-horizon", "1500", "-stream", "-check",
	}, &out, &stderr); code != 0 {
		t.Fatalf("streaming -check run exited %d: %s", code, stderr.String())
	}
}

// TestFastForwardFlag: -fast-forward produces the identical summary to
// the full streamed run (counts and response moments are exact across
// the analytic jump) and reports the cycles it skipped.
func TestFastForwardFlag(t *testing.T) {
	tasks := filepath.Join("..", "..", "testdata", "figures.tasks")
	base := []string{"-tasks", tasks, "-horizon", "60000", "-stream"}

	var fullOut, fullErr bytes.Buffer
	if code := run(base, &fullOut, &fullErr); code != 0 {
		t.Fatalf("full run exited %d: %s", code, fullErr.String())
	}
	var ffOut, ffErr bytes.Buffer
	if code := run(append(append([]string{}, base...), "-fast-forward"), &ffOut, &ffErr); code != 0 {
		t.Fatalf("fast-forward run exited %d: %s", code, ffErr.String())
	}
	if !strings.Contains(ffErr.String(), "fast-forwarded") {
		t.Errorf("summary must report the skipped cycles: %s", ffErr.String())
	}
	// Strip the fast-forward banner; the per-task summary must match
	// the full run byte for byte.
	summary := ffErr.String()
	if i := strings.Index(summary, "\n"); i >= 0 && strings.HasPrefix(summary, "fast-forwarded") {
		summary = summary[i+1:]
	}
	if summary != fullErr.String() {
		t.Errorf("fast-forward summary differs:\n--- ff ---\n%s--- full ---\n%s", summary, fullErr.String())
	}
}

// TestFastForwardFlagConflicts: -fast-forward needs streaming
// collection and refuses every full-event-stream consumer.
func TestFastForwardFlagConflicts(t *testing.T) {
	tasks := filepath.Join("..", "..", "testdata", "figures.tasks")
	for _, tc := range []struct {
		args []string
		code int
		want string
	}{
		{[]string{"-tasks", tasks, "-stream", "-fast-forward", "-check"}, 2, "-check"},
		{[]string{"-tasks", tasks, "-stream", "-fast-forward", "-trace-out", "x.log"}, 2, "-trace-out"},
		{[]string{"-tasks", tasks, "-stream", "-fast-forward", "-checkpoint", "x.ckpt", "-checkpoint-at", "100"}, 2, "-checkpoint"},
		{[]string{"-resume", "x.ckpt", "-fast-forward"}, 2, "fast-forward"},
		{[]string{"-tasks", tasks, "-fast-forward"}, 1, "fast_forward"},
		{[]string{"-tasks", tasks, "-stream", "-treatment", "stop", "-fast-forward"}, 1, "fast_forward"},
		{[]string{"-tasks", tasks, "-stream", "-fault", "tau1:5:40", "-fast-forward"}, 1, "fast_forward"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != tc.code {
			t.Errorf("%v exited %d, want %d: %s", tc.args, code, tc.code, stderr.String())
		}
		if !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("%v: error must mention %q: %s", tc.args, tc.want, stderr.String())
		}
	}
}

// TestAdmissionRejectionMessage pins the whole message an infeasible
// -tasks run fails with, package prefix included, under a treatment
// and without one: the Table 2 system with every cost at 65 ms misses
// τ2's and τ3's deadlines, and an overloaded set (U > 1) names the task
// whose response time diverges.
func TestAdmissionRejectionMessage(t *testing.T) {
	for _, c := range []struct {
		name, spec, misses string
	}{
		{"wcrt", "task tau1 priority=20 period=200 deadline=70 cost=65\n" +
			"task tau2 priority=18 period=250 deadline=120 cost=65\n" +
			"task tau3 priority=16 period=1500 deadline=120 cost=65\n", "[tau2 tau3]"},
		// U = 1.1: tau1 alone is bounded and meets its deadline; tau2's
		// response time diverges.
		{"overload", "task tau1 priority=20 period=100 deadline=100 cost=50\n" +
			"task tau2 priority=18 period=100 deadline=100 cost=60\n", "[tau2]"},
	} {
		tasks := filepath.Join(t.TempDir(), c.name+".tasks")
		if err := os.WriteFile(tasks, []byte(c.spec), 0o644); err != nil {
			t.Fatal(err)
		}
		want := "rtrun: core: admission control rejects the system (misses: " + c.misses + ")\n"
		for _, treatment := range []string{"none", "stop"} {
			var stdout, stderr bytes.Buffer
			if code := run([]string{"-tasks", tasks, "-treatment", treatment}, &stdout, &stderr); code != 1 {
				t.Errorf("%s, treatment %s: exit %d, want 1", c.name, treatment, code)
			}
			if stderr.String() != want {
				t.Errorf("%s, treatment %s: stderr %q, want %q", c.name, treatment, stderr.String(), want)
			}
		}
	}
}
