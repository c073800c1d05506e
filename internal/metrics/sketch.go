package metrics

import (
	"math"
	"sort"

	"repro/internal/vtime"
)

// DefaultSketchEpsilon is the rank-error bound of the streaming
// quantile sketch used by Accumulator: a query for percentile p over
// n observations returns a value whose exact rank is within ±εn of
// ⌈p·n/100⌉.
const DefaultSketchEpsilon = 0.01

// Sketch is a Greenwald–Khanna ε-approximate quantile summary over
// response times. It is deterministic (no sampling), supports online
// insertion, and retains O((1/ε)·log(εn)) tuples instead of the n
// observations a sort-based percentile needs — the piece that lets
// streaming collection answer percentile queries with bounded memory.
//
// Guarantee (the bound the property test pins): after n Adds, Query(q)
// returns an observed value whose rank r in the sorted input satisfies
// |r − ⌈q·n⌉| ≤ ⌈εn⌉.
type Sketch struct {
	eps float64
	n   int64
	t   []gkTuple // sorted by v
}

// gkTuple is one GK summary entry: v was observed; g is the gap in
// minimum rank to the previous tuple; delta bounds the rank
// uncertainty of v itself.
type gkTuple struct {
	v        vtime.Duration
	g, delta int64
}

// NewSketch returns an empty sketch with rank-error bound eps
// (0 < eps < 1); out-of-range values fall back to
// DefaultSketchEpsilon.
func NewSketch(eps float64) *Sketch {
	if eps <= 0 || eps >= 1 {
		eps = DefaultSketchEpsilon
	}
	return &Sketch{eps: eps}
}

// Epsilon returns the sketch's rank-error bound.
func (s *Sketch) Epsilon() float64 { return s.eps }

// Clone returns an independent copy: later Adds to the original do
// not affect the clone's answers.
func (s *Sketch) Clone() *Sketch {
	return &Sketch{eps: s.eps, n: s.n, t: append([]gkTuple(nil), s.t...)}
}

// reset empties the sketch, keeping its bound and tuple storage.
func (s *Sketch) reset() { s.n, s.t = 0, s.t[:0] }

// N returns the number of observations added.
func (s *Sketch) N() int64 { return s.n }

// Merge folds another sketch into this one (the other is unchanged):
// the tuple lists interleave by value, and each surviving tuple's
// rank uncertainty widens by the local uncertainty of its neighbour
// from the other summary. Merging an εa- and an εb-summary yields an
// (εa+εb)-summary — the sketch's Epsilon is widened accordingly, so
// the bound it reports stays honest; one level of merging (shards →
// aggregate) is the intended use, repeated pairwise merging keeps
// summing the bounds. The property test pins the merged guarantee
// against exact ranks over random splits.
func (s *Sketch) Merge(o *Sketch) {
	if o.n == 0 {
		return
	}
	if s.n == 0 {
		s.n, s.t = o.n, append([]gkTuple(nil), o.t...)
		if o.eps > s.eps {
			s.eps = o.eps
		}
		return
	}
	merged := make([]gkTuple, 0, len(s.t)+len(o.t))
	var from []bool // true = tuple came from s
	i, j := 0, 0
	for i < len(s.t) || j < len(o.t) {
		if j >= len(o.t) || (i < len(s.t) && s.t[i].v <= o.t[j].v) {
			merged = append(merged, s.t[i])
			from = append(from, true)
			i++
		} else {
			merged = append(merged, o.t[j])
			from = append(from, false)
			j++
		}
	}
	// Widen each tuple's delta by the uncertainty band of the next
	// tuple from the *other* summary: between them, that summary may
	// hide up to g+delta-1 observations on either side.
	for k := range merged {
		for n := k + 1; n < len(merged); n++ {
			if from[n] != from[k] {
				if w := merged[n].g + merged[n].delta - 1; w > 0 {
					merged[k].delta += w
				}
				break
			}
		}
	}
	s.t = merged
	s.n += o.n
	s.eps += o.eps
	s.compress()
}

// ScaleMerge folds k−1 additional identical copies of the sketch into
// itself: afterwards the summary describes the k-fold multiset of
// everything Added so far (the engine's steady-state fast-forward uses
// this to account K extrapolated hyperperiod cycles at once), and the
// summary's ε rank-error bound is UNCHANGED. That is strictly tighter
// than folding the same data in with k−1 repeated Merges, which would
// widen the bound to k·ε; the property test pins the unchanged-ε
// guarantee across the test distributions.
//
// Two cases keep the per-tuple invariant g+Δ ≤ 2εn that Query's bound
// rests on. A tuple already inside the scaled budget just scales — the
// invariant is linear (g+Δ ≤ 2εn ⇒ k(g+Δ) ≤ 2ε·kn). An exact tuple
// (g = 1, Δ = 0 — the only kind a small un-compressed summary holds)
// whose scaled gap k would overflow the budget is instead split into
// same-value tuples with gaps ≤ ⌊2ε·kn⌋: its k copies really do occupy
// k consecutive ranks, so each chunk's rank is still exact.
func (s *Sketch) ScaleMerge(k int64) {
	if k <= 1 || s.n == 0 {
		return
	}
	n2 := s.n * k
	budget := int64(2 * s.eps * float64(n2))
	chunk := budget
	if chunk < 1 {
		chunk = 1
	}
	out := make([]gkTuple, 0, len(s.t))
	for _, t := range s.t {
		if (t.g+t.delta)*k <= budget || t.g != 1 || t.delta != 0 {
			out = append(out, gkTuple{v: t.v, g: t.g * k, delta: t.delta * k})
			continue
		}
		for rest := k; rest > 0; rest -= chunk {
			g := chunk
			if rest < chunk {
				g = rest
			}
			out = append(out, gkTuple{v: t.v, g: g})
		}
	}
	s.t = out
	s.n = n2
}

// Add inserts one observation.
func (s *Sketch) Add(v vtime.Duration) {
	i := sort.Search(len(s.t), func(i int) bool { return s.t[i].v > v })
	var delta int64
	if i > 0 && i < len(s.t) && len(s.t) >= int(1/(2*s.eps)) {
		// Interior insertion into a full summary inherits the local
		// uncertainty budget (GK §2: Δ = ⌊2εn⌋ − 1). Extremes keep
		// Δ = 0 so min and max stay exact.
		if delta = int64(2*s.eps*float64(s.n)) - 1; delta < 0 {
			delta = 0
		}
	}
	s.t = append(s.t, gkTuple{})
	copy(s.t[i+1:], s.t[i:])
	s.t[i] = gkTuple{v: v, g: 1, delta: delta}
	s.n++
	// Compress every ~1/(2ε) insertions: amortized O(1) per Add and
	// enough to keep the summary at its logarithmic bound.
	if period := int64(1 / (2 * s.eps)); period > 0 && s.n%period == 0 {
		s.compress()
	}
}

// compress merges adjacent tuples whose combined uncertainty stays
// within the 2εn budget, front to back, keeping the extremes exact.
func (s *Sketch) compress() {
	if len(s.t) < 3 {
		return
	}
	budget := int64(2 * s.eps * float64(s.n))
	out := s.t[:1]
	for i := 1; i < len(s.t); i++ {
		cur := s.t[i]
		last := out[len(out)-1]
		// Merging deletes the earlier tuple, folding its gap into the
		// later one. The first tuple is never merged away (keeps the
		// minimum exact); the final tuple always survives as a merge
		// target (keeps the maximum exact).
		if len(out) > 1 && last.g+cur.g+cur.delta < budget {
			cur.g += last.g
			out[len(out)-1] = cur
		} else {
			out = append(out, cur)
		}
	}
	s.t = out
}

// Query returns the value at quantile q (0 < q ≤ 1) within the
// sketch's rank-error bound. The second result is false when the
// sketch is empty or q is out of range.
func (s *Sketch) Query(q float64) (vtime.Duration, bool) {
	if s.n == 0 || q <= 0 || q > 1 {
		return 0, false
	}
	rank := int64(math.Ceil(q * float64(s.n)))
	if rank < 1 {
		rank = 1
	}
	// The extremes are held exactly (Δ = 0 at both ends, and neither
	// end is ever merged away), so answer them directly instead of
	// letting the ⌈εn⌉ slack pick a neighbour.
	if rank <= 1 {
		return s.t[0].v, true
	}
	if rank >= s.n {
		return s.t[len(s.t)-1].v, true
	}
	// GK query: return a tuple whose possible rank interval
	// [rmin, rmax] lies within ±e of the target rank. The summary
	// invariant guarantees one exists; the midpoint fallback guards
	// degenerate cases without weakening the tested bound.
	e := int64(math.Ceil(s.eps * float64(s.n)))
	var rmin int64
	best := s.t[0].v
	bestDist := int64(math.MaxInt64)
	for _, t := range s.t {
		rmin += t.g
		rmax := rmin + t.delta
		if rank-rmin <= e && rmax-rank <= e {
			return t.v, true
		}
		mid := (rmin + rmax) / 2
		d := mid - rank
		if d < 0 {
			d = -d
		}
		if d < bestDist {
			bestDist, best = d, t.v
		}
	}
	return best, true
}
