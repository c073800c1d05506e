// Package core is the library facade of the reproduction: it wires
// admission control (package analysis), the allowance computation
// (package allowance), the simulated real-time platform (package
// engine) and the fault detectors and treatments (package detect)
// into a single System that mirrors the paper's workflow — parse the
// tasks, run admission control, start the system with detectors, and
// collect the time-series log. Runs outside the paper's admission
// model (Config.SkipAdmission, multiprocessor platforms) go through the
// same System with the admission, allowance and detector steps left
// out.
package core

import (
	"errors"
	"fmt"

	"repro/internal/allowance"
	"repro/internal/analysis"
	"repro/internal/detect"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/taskset"
	"repro/internal/trace"
	"repro/internal/verify"
	"repro/internal/vtime"
)

// Config assembles a fault-tolerant real-time system run.
type Config struct {
	// Tasks is the periodic task system.
	Tasks *taskset.Set
	// Treatment selects the paper's fault response (§4); the zero
	// value is NoDetection (Figure 3).
	Treatment detect.Treatment
	// Faults injects cost overruns per task (nil = fault free).
	Faults fault.Plan
	// Horizon is the simulated duration (must be positive).
	Horizon vtime.Duration
	// TimerResolution quantizes detector releases (0 = exact;
	// detect.DefaultTimerResolution reproduces jRate's 10 ms).
	TimerResolution vtime.Duration
	// StopPoll is the stop-flag poll granularity (§4.1; 0 = 1 ms).
	StopPoll vtime.Duration
	// StopJitterMax bounds the unbounded-cost poll jitter (§4.1).
	StopJitterMax vtime.Duration
	// Seed drives all randomness (stop jitter).
	Seed uint64
	// ContextSwitch charges a dispatch-switch overhead.
	ContextSwitch vtime.Duration
	// Policy orders ready jobs; nil means the paper's preemptive
	// fixed-priority scheduler. Non-default policies only combine
	// with NoDetection: the detectors' WCRT arming presupposes
	// fixed-priority response-time analysis.
	Policy engine.Policy
	// Collect selects run-data retention: engine.Retain (default)
	// keeps the full log and job history; engine.Stream bounds memory
	// for long horizons — the Report comes from a streaming
	// metrics.Accumulator and Result.Log stays empty.
	Collect engine.Collect
	// TraceSink, when non-nil, receives every trace event as it is
	// recorded: alongside the log under Retain, instead of it under
	// Stream (spill-to-disk via trace.NewWriterSink; the caller
	// flushes after Run).
	TraceSink trace.Sink
	// FastForward enables the engine's steady-state cycle detection:
	// once two consecutive hyperperiod boundaries fingerprint equal,
	// the remaining whole cycles are extrapolated analytically and only
	// the tail is simulated (engine/fastforward.go). NewSystem rejects
	// what the eligibility table (engine.Features) rules out —
	// everything that would either break periodicity or observe the
	// event hole the jump leaves, TraceSink and Checker included.
	FastForward bool
	// SkipAdmission runs without the paper's admission control: no
	// feasibility test, allowance or detector supervisor (so only
	// treatment none applies) — how deliberately overloaded systems
	// run. Multiprocessor runs (CPUs > 1) skip it implicitly: the
	// uniprocessor test does not apply to them.
	SkipAdmission bool
	// CPUs, Partition and Sources select the processor topology and
	// source-driven releases, as in engine.Config.
	CPUs      int
	Partition []int
	Sources   []taskset.Source
	// Checker, when non-nil, is the online invariant oracle (package
	// verify; verify.ForScenario builds one for a scenario): every
	// trace event is checked against the scheduling axioms as it is
	// recorded — in Retain and Stream collection alike — and the run
	// fails with a wrapped *verify.Error on any violation. A Checker
	// observes one run.
	Checker *verify.Checker
}

// Result is the outcome of a run.
type Result struct {
	// Log is the recorded time series (the paper's log file).
	Log *trace.Log
	// Report summarizes jobs and tasks from the log.
	Report *metrics.Report
	// Admission is the pre-run feasibility report (nil when the run
	// skipped admission control).
	Admission *analysis.Report
	// Allowance is the tolerance analysis (nil without admission).
	Allowance *allowance.Table
	// Detections counts detector-flagged faults.
	Detections int64
	// Switches counts dispatch switches (overhead sweeps).
	Switches int64
	// SkippedCycles counts the hyperperiod cycles fast-forward
	// extrapolated instead of simulating (zero unless
	// Config.FastForward engaged).
	SkippedCycles int64
}

// System is a configured, not-yet-run reproduction instance.
type System struct {
	cfg Config
	// sup and adm are nil when the run skips admission control.
	sup *detect.Supervisor
	adm *analysis.Report
}

// NewSystem validates the configuration and, unless the run skips it
// (Config.SkipAdmission, CPUs > 1), performs the paper's admission
// control. It fails when an admitted system is not theoretically
// feasible — the paper's detectors presuppose WCRTs that exist.
func NewSystem(cfg Config) (*System, error) {
	if cfg.Tasks == nil {
		return nil, fmt.Errorf("core: no tasks configured")
	}
	if cfg.Horizon <= 0 {
		return nil, fmt.Errorf("core: horizon must be positive")
	}
	s := &System{cfg: cfg}
	if cfg.Treatment != detect.NoDetection {
		if !s.admitted() {
			return nil, fmt.Errorf("core: treatment %v requires admission control (uniprocessor, SkipAdmission off)", cfg.Treatment)
		}
		if name := s.features().Policy; name != (engine.FixedPriority{}).Name() {
			return nil, fmt.Errorf("core: policy %q cannot combine with treatment %v: detectors presuppose fixed-priority analysis", name, cfg.Treatment)
		}
	}
	if cfg.FastForward {
		if err := s.features().FastForwardable("core: fast-forward"); err != nil {
			return nil, err
		}
	}
	if !s.admitted() {
		return s, nil
	}
	sup, err := detect.NewSupervisor(cfg.Tasks, detect.Config{
		Treatment:       cfg.Treatment,
		TimerResolution: cfg.TimerResolution,
	})
	// The supervisor's rejection names the misses; a run reports it
	// under its own prefix.
	var rej interface{ Misses() []string }
	if errors.As(err, &rej) {
		return nil, fmt.Errorf("core: admission control rejects the system (misses: %v)", rej.Misses())
	}
	if err != nil {
		return nil, err
	}
	s.sup, s.adm = sup, sup.Admission()
	return s, nil
}

// admitted reports whether the run goes through admission control.
func (s *System) admitted() bool { return !s.cfg.SkipAdmission && s.cfg.CPUs <= 1 }

// engineConfig maps the configuration onto the engine; prepare adds
// the sink chain and observer.
func (s *System) engineConfig() engine.Config {
	return engine.Config{
		Tasks:         s.cfg.Tasks,
		Faults:        s.cfg.Faults,
		Sources:       s.cfg.Sources,
		End:           vtime.Time(s.cfg.Horizon),
		Policy:        s.cfg.Policy,
		StopPoll:      s.cfg.StopPoll,
		StopJitterMax: s.cfg.StopJitterMax,
		Seed:          s.cfg.Seed,
		ContextSwitch: s.cfg.ContextSwitch,
		CPUs:          s.cfg.CPUs,
		Partition:     s.cfg.Partition,
		Collect:       s.cfg.Collect,
		FastForward:   s.cfg.FastForward,
	}
}

// features adds what only core sees — the treatment, the oracle and
// the trace sink — to the engine's eligibility features.
func (s *System) features() engine.Features {
	ecfg := s.engineConfig()
	f := ecfg.Features()
	f.Detectors = s.cfg.Treatment != detect.NoDetection
	f.Oracle = s.cfg.Checker != nil
	f.TraceSink = s.cfg.TraceSink != nil
	return f
}

// Admission returns the pre-run feasibility report (nil when the run
// skips admission control).
func (s *System) Admission() *analysis.Report { return s.adm }

// Allowance returns the tolerance table backing the treatments (nil
// when the run skips admission control).
func (s *System) Allowance() *allowance.Table {
	if s.sup == nil {
		return nil
	}
	return s.sup.Table()
}

// Supervisor exposes the detector supervisor (for dynamic admission;
// nil when the run skips admission control).
func (s *System) Supervisor() *detect.Supervisor { return s.sup }

// Run simulates the system to the horizon and returns the result.
// Run may be called once per System; build a fresh System to re-run.
func (s *System) Run() (*Result, error) {
	return s.RunWith(nil)
}

// RunWith exposes the engine to a caller-driven scenario (dynamic
// admission examples): setup runs after detectors are attached and
// may schedule events on the engine before it starts (sup is nil when
// the run skips admission control).
func (s *System) RunWith(setup func(e *engine.Engine, sup *detect.Supervisor)) (*Result, error) {
	p, err := s.prepare()
	if err != nil {
		return nil, err
	}
	if setup != nil {
		setup(p.eng, s.sup)
	}
	return s.finish(p, p.eng.Run())
}

// prepared is a wired-but-not-yet-run instance: the engine with its
// sink chain (accumulator, oracle, trace sink) assembled and the
// supervisor attached.
type prepared struct {
	eng *engine.Engine
	acc *metrics.Accumulator
}

// prepare assembles the sink chain and the engine — everything a run
// does before eng.Run(), shared by Run, RunToCheckpoint and RunFrom.
func (s *System) prepare() (*prepared, error) {
	ecfg := s.engineConfig()
	ecfg.Sink = s.cfg.TraceSink
	var acc *metrics.Accumulator
	if s.cfg.Collect == engine.Stream {
		// Streaming: the accumulator summarizes the event stream in
		// place of the post-hoc Analyze; the optional TraceSink sees
		// the same events (Tee skips it when nil).
		acc = metrics.NewAccumulator()
		ecfg.Sink = trace.Tee(acc, ecfg.Sink)
	}
	if s.cfg.FastForward {
		// The accumulator doubles as the cycle observer so the metrics
		// stay exact across the analytic jump.
		ecfg.Observer = acc
	}
	if s.cfg.Checker != nil {
		ecfg.Sink = trace.Tee(s.cfg.Checker, ecfg.Sink)
	}
	eng, err := engine.New(ecfg)
	if err != nil {
		return nil, err
	}
	if s.sup != nil {
		s.sup.Attach(eng)
	}
	return &prepared{eng: eng, acc: acc}, nil
}

// finish settles a completed run: oracle verdict, report, result.
func (s *System) finish(p *prepared, log *trace.Log) (*Result, error) {
	if s.cfg.Checker != nil {
		if verr := s.cfg.Checker.FinishErr(); verr != nil {
			return nil, fmt.Errorf("core: invariant oracle: %w", verr)
		}
	}
	res := &Result{
		Log:           log,
		Admission:     s.adm,
		Allowance:     s.Allowance(),
		Switches:      p.eng.Switches(),
		SkippedCycles: p.eng.SkippedCycles(),
	}
	if p.acc != nil {
		res.Report = p.acc.Report()
	} else {
		res.Report = metrics.Analyze(log)
	}
	if s.sup != nil {
		res.Detections = s.sup.Detections()
	}
	return res, nil
}

// CheckpointState pairs the two halves of a mid-run snapshot: the
// engine's scheduling state and the streaming accumulator's metric
// state. Together with the originating Config they are everything a
// resumed run needs; the sim facade wraps them with the scenario into
// a self-contained file format.
type CheckpointState struct {
	Engine  *engine.Checkpoint
	Metrics *metrics.AccumulatorState
}

// RunToCheckpoint simulates the system up to instant at (exclusive of
// later events), then snapshots it. Events strictly before or at `at`
// have fired; the partial trace reaches cfg.TraceSink; the returned
// state resumes with RunFrom on a fresh System built from the same
// Config. Like Run, it consumes the System. Configurations the
// eligibility table rules out fail before any event is simulated.
func (s *System) RunToCheckpoint(at vtime.Duration) (*CheckpointState, error) {
	if err := s.features().Checkpointable("core: checkpointing"); err != nil {
		return nil, err
	}
	p, err := s.prepare()
	if err != nil {
		return nil, err
	}
	if err := p.eng.RunUntil(vtime.Time(at)); err != nil {
		return nil, err
	}
	ecp, err := p.eng.Snapshot()
	if err != nil {
		return nil, err
	}
	return &CheckpointState{Engine: ecp, Metrics: p.acc.State()}, nil
}

// RunFrom restores a checkpoint into this (not-yet-run) System and
// completes the horizon. The System must be built from the Config that
// produced the checkpoint; the resumed segment's events reach
// cfg.TraceSink, and the returned Report covers the whole run —
// segment one arrives inside the checkpoint's accumulator state.
func (s *System) RunFrom(cp *CheckpointState) (*Result, error) {
	if err := s.features().Checkpointable("core: checkpointing"); err != nil {
		return nil, err
	}
	if cp == nil || cp.Engine == nil || cp.Metrics == nil {
		return nil, fmt.Errorf("core: RunFrom needs both engine and metrics state")
	}
	p, err := s.prepare()
	if err != nil {
		return nil, err
	}
	if err := p.acc.RestoreState(cp.Metrics); err != nil {
		return nil, err
	}
	if err := p.eng.Restore(cp.Engine); err != nil {
		return nil, err
	}
	return s.finish(p, p.eng.Run())
}
