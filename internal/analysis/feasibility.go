package analysis

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/taskset"
	"repro/internal/vtime"
)

// Report is the full admission-control result for a task set: the
// outcome the paper's FeasibilityAnalysis class delegates to from the
// overloaded addToFeasibility()/removeFromFeasibility() methods.
type Report struct {
	// Utilization is the system load U (paper Eq. 1).
	Utilization float64
	// WCRT holds the worst-case response time per task (set order),
	// valid only when Unbounded is false.
	WCRT []vtime.Duration
	// Feasible reports whether every task's WCRT is within its
	// deadline — the exact test the paper installs.
	Feasible bool
	// Unbounded is true when U > 1 at some priority level and
	// response times diverge; the system is then infeasible.
	Unbounded bool
	// Misses names, in set order, the tasks that fail the test: each
	// task whose response time diverges (its own plus higher-or-equal
	// priority load exceeds 1) and each bounded task whose WCRT
	// exceeds its deadline.
	Misses []string
}

// Feasible runs the exact admission control: the Eq. 1 load test
// followed by the Figure 2 response-time computation for every task,
// comparing each WCRT to its deadline. An overloaded set still gets
// the per-task computation, so a rejection names the tasks at fault.
func Feasible(s *taskset.Set) (*Report, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	rep := &Report{Utilization: s.Utilization()}
	rep.Unbounded = rep.Utilization > 1
	wcrt := make([]vtime.Duration, s.Len())
	for i, t := range s.Tasks {
		r, err := WCResponseTime(s, i, 0)
		switch {
		case errors.Is(err, ErrUnbounded):
			rep.Unbounded = true
			rep.Misses = append(rep.Misses, t.Name)
		case err != nil:
			return nil, err
		case r > t.Deadline:
			rep.Misses = append(rep.Misses, t.Name)
		}
		wcrt[i] = r
	}
	if !rep.Unbounded {
		rep.WCRT = wcrt
		rep.Feasible = len(rep.Misses) == 0
	}
	return rep, nil
}

// Render renders the report as a table in the paper's layout
// (name, P, T, D, C, WCRT, verdict).
func (r *Report) Render(s *taskset.Set) string {
	var b strings.Builder
	fmt.Fprintf(&b, "U = %.4f\n", r.Utilization)
	if r.Unbounded {
		b.WriteString("system load exceeds 1 at some priority level: infeasible\n")
		return b.String()
	}
	fmt.Fprintf(&b, "%-8s %4s %10s %10s %10s %12s %s\n", "task", "P", "T", "D", "C", "WCRT", "ok")
	for i, t := range s.Tasks {
		ok := "yes"
		if r.WCRT[i] > t.Deadline {
			ok = "MISS"
		}
		fmt.Fprintf(&b, "%-8s %4d %10v %10v %10v %12v %s\n",
			t.Name, t.Priority, t.Period, t.Deadline, t.Cost, r.WCRT[i], ok)
	}
	if r.Feasible {
		b.WriteString("verdict: feasible\n")
	} else {
		fmt.Fprintf(&b, "verdict: infeasible (misses: %s)\n", strings.Join(r.Misses, ", "))
	}
	return b.String()
}
