package main

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"

	"repro/internal/verify"
)

// served is what a client saw for one POST /v1/simulate?format=report.
type served struct {
	err    error // transport error
	status int
	body   []byte
	digest string // X-Scenario-Digest
	cache  string // X-Cache
}

// expected is the locally computed truth for one scenario document:
// its digest and the Summary() of a local sim.FromScenario(sc).Run().
type expected struct {
	digest string
	report []byte
}

// checkServed compares one served response against the local truth
// and the X-Cache value the workload guarantees. Any difference is a
// failed request.
func checkServed(got served, want expected, wantCache string) error {
	switch {
	case got.err != nil:
		return fmt.Errorf("transport: %w", got.err)
	case got.status != http.StatusOK:
		return fmt.Errorf("status %d: %.200s", got.status, got.body)
	case got.digest != want.digest:
		return fmt.Errorf("X-Scenario-Digest %q, want %q", got.digest, want.digest)
	case got.cache != wantCache:
		return fmt.Errorf("X-Cache %q, want %q", got.cache, wantCache)
	case !bytes.Equal(got.body, want.report):
		return fmt.Errorf("body differs from the local report (%d bytes, want %d)", len(got.body), len(want.report))
	}
	return nil
}

// checkBatch compares a report produced in the timed phase with the
// rerun of the same scenario under the online invariant oracle. The
// rerun must succeed (an oracle violation fails it) and its report
// must be byte-equal.
func checkBatch(got string, rerun string, rerunErr error) error {
	if rerunErr != nil {
		var v *verify.Error
		if errors.As(rerunErr, &v) {
			return fmt.Errorf("oracle violation in the verified rerun: %w", rerunErr)
		}
		return fmt.Errorf("verified rerun failed: %w", rerunErr)
	}
	if got != rerun {
		return fmt.Errorf("report differs from the verified rerun (%d bytes, want %d)", len(got), len(rerun))
	}
	return nil
}

// failures counts failed checks and keeps the first few messages.
type failures struct {
	n    int64
	msgs []string
}

func (f *failures) add(what string, err error) {
	if err == nil {
		return
	}
	f.n++
	if len(f.msgs) < 5 {
		f.msgs = append(f.msgs, what+": "+err.Error())
	}
}
