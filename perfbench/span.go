package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed call into a layer, recorded from outside the layer
// by the benchmark. Spans of one request (or one probed input) share
// Req; Parent is the ID of the span that caused this one (0 for a
// root).
type Span struct {
	ID     int64         `json:"id"`
	Parent int64         `json:"parent,omitempty"`
	Req    int64         `json:"req"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// Dur is the span's wall duration.
func (s Span) Dur() time.Duration { return s.End - s.Start }

// Recorder keeps spans in memory; WriteFile writes them out once the
// run has ended, so recording costs an append, not I/O.
type Recorder struct {
	epoch time.Time
	ids   atomic.Int64

	mu    sync.Mutex
	spans []Span
}

// NewRecorder starts a recorder whose span times are offsets from now.
func NewRecorder() *Recorder { return &Recorder{epoch: time.Now()} }

// NewID allocates a span (or request) identifier.
func (r *Recorder) NewID() int64 { return r.ids.Add(1) }

// Now is the recorder's clock.
func (r *Recorder) Now() time.Duration { return time.Since(r.epoch) }

// Add records a finished span.
func (r *Recorder) Add(s Span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// Spans returns the recorded spans.
func (r *Recorder) Spans() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// WriteFile writes the spans as JSON lines.
func (r *Recorder) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.Spans() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// SelfTimes maps each span ID to its self time: the span's duration
// minus the part of its interval that its child spans cover. Children
// may overlap each other (concurrent calls) and may outlive the
// parent; only the covered part of the parent's own interval counts,
// and only once.
func SelfTimes(spans []Span) map[int64]time.Duration {
	children := make(map[int64][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] = s.Dur() - covered(s, children[s.ID])
	}
	return self
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's interval.
func covered(parent Span, kids []Span) time.Duration {
	type iv struct{ lo, hi time.Duration }
	var ivs []iv
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, end time.Duration
	first := true
	for _, v := range ivs {
		switch {
		case first || v.lo >= end:
			total += v.hi - v.lo
			end, first = v.hi, false
		case v.hi > end:
			total += v.hi - end
			end = v.hi
		}
	}
	return total
}

// layerStat aggregates the spans of one name.
type layerStat struct {
	n         int
	dur, self time.Duration
}

// ByName aggregates span durations and self times per span name.
func ByName(spans []Span) map[string]*layerStat {
	self := SelfTimes(spans)
	out := make(map[string]*layerStat)
	for _, s := range spans {
		st := out[s.Name]
		if st == nil {
			st = &layerStat{}
			out[s.Name] = st
		}
		st.n++
		st.dur += s.Dur()
		st.self += self[s.ID]
	}
	return out
}

// meanSelfUS is the mean self time per span, in µs (0 when absent).
func (st *layerStat) meanSelfUS() float64 {
	if st == nil || st.n == 0 {
		return 0
	}
	return float64(st.self) / float64(st.n) / 1e3
}
