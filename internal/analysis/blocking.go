package analysis

import (
	"fmt"

	"repro/internal/taskset"
	"repro/internal/vtime"
)

// The paper's §7 notes that shared resources introduce a blocking
// time bi into the response-time analysis and asks how the tolerance
// interacts with it. ResponseTimes takes per-task blocking terms; the
// function here derives them (computed, e.g., under the priority
// ceiling protocol: at most one critical section of one
// lower-priority task per job), so the allowance package can answer
// that question quantitatively.

// CeilingBlocking derives per-task blocking terms for a priority
// ceiling protocol from critical-section lengths: task i can be
// blocked by at most one critical section of one lower-priority task
// whose resource ceiling reaches i's priority. Given each task's
// longest critical section (cs, set order; zero = takes no locks) and
// assuming every resource is shared by all tasks (the most
// pessimistic ceiling), b_i = max over lower-priority j of cs_j. The
// lowest-priority task is never blocked.
func CeilingBlocking(s *taskset.Set, cs []vtime.Duration) ([]vtime.Duration, error) {
	if len(cs) != s.Len() {
		return nil, fmt.Errorf("analysis: cs has %d entries for %d tasks", len(cs), s.Len())
	}
	out := make([]vtime.Duration, s.Len())
	for i, ti := range s.Tasks {
		for j, tj := range s.Tasks {
			if tj.Priority < ti.Priority && cs[j] > out[i] {
				out[i] = cs[j]
			}
		}
	}
	return out, nil
}
