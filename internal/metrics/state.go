package metrics

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/vtime"
)

// AccumulatorState is the complete serializable state of an
// Accumulator: per-task summaries with their response moments, the
// quantile sketches, and the transient live-job records. It is the
// wire format of the checkpoint/resume pipeline (a resumed run's
// accumulator continues field-for-field from the snapshot) and of the
// process-sharded sweeps (workers stream it back, the parent rebuilds
// reports or folds shards into an aggregate with Absorb). Slices are
// sorted (tasks by name, live jobs by task then q, sketch tuples by
// value) so the JSON encoding of a deterministic run is canonical.
type AccumulatorState struct {
	Version int            `json:"version"`
	Epsilon float64        `json:"epsilon"`
	Tasks   []TaskState    `json:"tasks,omitempty"`
	Live    []LiveJobState `json:"live,omitempty"`
}

// AccumulatorStateVersion stamps AccumulatorState encodings.
const AccumulatorStateVersion = 1

// TaskState is one task's accumulated summary plus its sketch.
type TaskState struct {
	Task        string       `json:"task"`
	Released    int          `json:"released"`
	Finished    int          `json:"finished"`
	Stopped     int          `json:"stopped,omitempty"`
	Missed      int          `json:"missed,omitempty"`
	Failed      int          `json:"failed,omitempty"`
	Detected    int          `json:"detected,omitempty"`
	MinResponse int64        `json:"min_response"`
	MaxResponse int64        `json:"max_response"`
	RespSum     int64        `json:"resp_sum"`
	RespN       int64        `json:"resp_n"`
	Sketch      *SketchState `json:"sketch,omitempty"`
}

// SketchState is a GK quantile summary as data: (value, g, delta)
// triples in value order.
type SketchState struct {
	Epsilon float64    `json:"epsilon"`
	N       int64      `json:"n"`
	Tuples  [][3]int64 `json:"tuples,omitempty"`
}

// LiveJobState is one released-but-unterminated job.
type LiveJobState struct {
	Task     string `json:"task"`
	Q        int64  `json:"q"`
	Release  int64  `json:"release"`
	Missed   bool   `json:"missed,omitempty"`
	Detected bool   `json:"detected,omitempty"`
}

// State snapshots the accumulator, live jobs included, so a restored
// accumulator resumes mid-run exactly (RestoreState).
func (a *Accumulator) State() *AccumulatorState {
	st := &AccumulatorState{Version: AccumulatorStateVersion, Epsilon: a.eps}
	order := make([]int, len(a.tasks))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(i, j int) int { return strings.Compare(a.tasks[i].sum.Task, a.tasks[j].sum.Task) })
	for _, i := range order {
		t := &a.tasks[i]
		s := &t.sum
		if t.summarized {
			ts := TaskState{
				Task:        s.Task,
				Released:    s.Released,
				Finished:    s.Finished,
				Stopped:     s.Stopped,
				Missed:      s.Missed,
				Failed:      s.Failed,
				Detected:    s.Detected,
				MinResponse: int64(s.MinResponse),
				MaxResponse: int64(s.MaxResponse),
				RespSum:     int64(s.respSum),
				RespN:       s.respN,
			}
			if t.sketch != nil {
				ts.Sketch = t.sketch.State()
			}
			st.Tasks = append(st.Tasks, ts)
		}
		for _, lj := range t.live.jobs() {
			st.Live = append(st.Live, LiveJobState{
				Task:     s.Task,
				Q:        lj.q,
				Release:  int64(lj.release),
				Missed:   lj.missed,
				Detected: lj.detected,
			})
		}
	}
	return st
}

// RestoreState loads a snapshot into an empty accumulator; subsequent
// Appends continue exactly where the snapshot left off. A snapshot
// listing the same live job twice is corrupt and refused.
func (a *Accumulator) RestoreState(st *AccumulatorState) error {
	if st.Version != AccumulatorStateVersion {
		return fmt.Errorf("metrics: accumulator state version %d, want %d", st.Version, AccumulatorStateVersion)
	}
	if len(a.tasks) != 0 {
		return fmt.Errorf("metrics: RestoreState on a non-empty accumulator")
	}
	if err := a.checkLive(st.Live); err != nil {
		return err
	}
	a.eps = st.Epsilon
	for _, ts := range st.Tasks {
		t := a.summary(ts.Task)
		t.sum = ts.summary()
		if ts.Sketch != nil {
			t.sketch = ts.Sketch.sketch()
		}
	}
	a.addLive(st.Live)
	return nil
}

// checkLive refuses incoming live jobs that repeat one another or are
// already live here, before any state changes.
func (a *Accumulator) checkLive(in []LiveJobState) error {
	seen := make(map[jobKey]bool, len(in))
	for _, lj := range in {
		k := jobKey{lj.Task, lj.Q}
		if seen[k] {
			return fmt.Errorf("metrics: accumulator state lists live job %s#%d twice", lj.Task, lj.Q)
		}
		seen[k] = true
		if i, ok := a.index[lj.Task]; ok {
			if _, live := a.tasks[i].live.find(lj.Q); live {
				return fmt.Errorf("metrics: Absorb live-job collision %s#%d (shards must cover disjoint runs)", lj.Task, lj.Q)
			}
		}
	}
	return nil
}

// addLive inserts live jobs that checkLive has cleared.
func (a *Accumulator) addLive(in []LiveJobState) {
	for _, lj := range in {
		t := &a.tasks[a.task(lj.Task)]
		i, _ := t.live.find(lj.Q)
		t.live.insert(i, liveJob{q: lj.Q, release: vtime.Time(lj.Release), missed: lj.Missed, detected: lj.Detected})
	}
}

type jobKey struct {
	task string
	q    int64
}

// summary converts the serialized form back to a TaskSummary.
func (ts TaskState) summary() TaskSummary {
	return TaskSummary{
		Task:        ts.Task,
		Released:    ts.Released,
		Finished:    ts.Finished,
		Stopped:     ts.Stopped,
		Missed:      ts.Missed,
		Failed:      ts.Failed,
		Detected:    ts.Detected,
		MinResponse: vtime.Duration(ts.MinResponse),
		MaxResponse: vtime.Duration(ts.MaxResponse),
		respSum:     vtime.Duration(ts.RespSum),
		respN:       ts.RespN,
	}
}

// Absorb folds a completed shard's state into the accumulator:
// counters sum, response extremes and moments fold, sketches merge
// (see Sketch.Merge for the widened rank-error bound), live jobs
// union. It is how the parent of a process-sharded sweep builds the
// aggregate view from streamed worker states. It is all-or-nothing: a
// state that is refused (wrong version, a live job listed twice or
// already live here) leaves the accumulator untouched.
func (a *Accumulator) Absorb(st *AccumulatorState) error {
	if st.Version != AccumulatorStateVersion {
		return fmt.Errorf("metrics: accumulator state version %d, want %d", st.Version, AccumulatorStateVersion)
	}
	if err := a.checkLive(st.Live); err != nil {
		return err
	}
	for _, ts := range st.Tasks {
		t := a.summary(ts.Task)
		s, incoming := &t.sum, ts.summary()
		if incoming.respN > 0 && (s.respN == 0 || incoming.MinResponse < s.MinResponse) {
			s.MinResponse = incoming.MinResponse
		}
		if incoming.MaxResponse > s.MaxResponse {
			s.MaxResponse = incoming.MaxResponse
		}
		s.Released += incoming.Released
		s.Finished += incoming.Finished
		s.Stopped += incoming.Stopped
		s.Missed += incoming.Missed
		s.Failed += incoming.Failed
		s.Detected += incoming.Detected
		s.respSum += incoming.respSum
		s.respN += incoming.respN
		if ts.Sketch != nil {
			in := ts.Sketch.sketch()
			if t.sketch != nil {
				t.sketch.Merge(in)
			} else {
				t.sketch = in
			}
		}
	}
	a.addLive(st.Live)
	return nil
}

// StateFromReport converts a streaming run's final report into the
// wire state (live jobs are gone by then — every released job either
// terminated or stays counted in Released). It is how sharded-sweep
// workers serialize a RunResult without access to the accumulator.
func StateFromReport(r *Report) (*AccumulatorState, error) {
	if !r.Streaming() {
		return nil, fmt.Errorf("metrics: StateFromReport needs a streaming report (sketch-backed percentiles)")
	}
	st := &AccumulatorState{Version: AccumulatorStateVersion, Epsilon: DefaultSketchEpsilon}
	names := make([]string, 0, len(r.Tasks))
	for name := range r.Tasks {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s := r.Tasks[name]
		ts := TaskState{
			Task:        name,
			Released:    s.Released,
			Finished:    s.Finished,
			Stopped:     s.Stopped,
			Missed:      s.Missed,
			Failed:      s.Failed,
			Detected:    s.Detected,
			MinResponse: int64(s.MinResponse),
			MaxResponse: int64(s.MaxResponse),
			RespSum:     int64(s.respSum),
			RespN:       s.respN,
		}
		if sk, ok := r.sketches[name]; ok {
			ts.Sketch = sk.State()
			st.Epsilon = sk.Epsilon()
		}
		st.Tasks = append(st.Tasks, ts)
	}
	return st, nil
}

// ReportFromState is the receiving end of StateFromReport: it
// rebuilds the streaming report a worker's run produced, equal
// field-for-field (summaries, mean included) and percentile-for-
// percentile (the sketches travel verbatim).
func ReportFromState(st *AccumulatorState) (*Report, error) {
	if st.Version != AccumulatorStateVersion {
		return nil, fmt.Errorf("metrics: accumulator state version %d, want %d", st.Version, AccumulatorStateVersion)
	}
	rep := &Report{
		Tasks:    make(map[string]*TaskSummary, len(st.Tasks)),
		sketches: make(map[string]*Sketch, len(st.Tasks)),
	}
	for _, ts := range st.Tasks {
		s := ts.summary()
		if s.respN > 0 {
			s.MeanResponse = s.respSum / vtime.Duration(s.respN)
		}
		rep.Tasks[ts.Task] = &s
		if ts.Sketch != nil {
			rep.sketches[ts.Task] = ts.Sketch.sketch()
		}
	}
	return rep, nil
}

// State serializes the sketch.
func (s *Sketch) State() *SketchState {
	st := &SketchState{Epsilon: s.eps, N: s.n}
	for _, t := range s.t {
		st.Tuples = append(st.Tuples, [3]int64{int64(t.v), t.g, t.delta})
	}
	return st
}

// sketch rebuilds the live form.
func (st *SketchState) sketch() *Sketch {
	sk := &Sketch{eps: st.Epsilon, n: st.N}
	for _, t := range st.Tuples {
		sk.t = append(sk.t, gkTuple{v: vtime.Duration(t[0]), g: t[1], delta: t[2]})
	}
	return sk
}
