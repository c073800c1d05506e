package serve

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"repro/sim/scenario"
)

// FuzzServeRepeat posts every body twice to a fresh server with a
// deterministic stub simulation. The body memo may change how the
// repeat is answered, never what: both answers must be byte-equal,
// the status is 200 exactly when the body decodes to a scenario
// without a path source, and the digest served is that scenario's.
func FuzzServeRepeat(f *testing.F) {
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "scenarios", "*.json"))
	if err != nil {
		f.Fatal(err)
	}
	for _, path := range files {
		b, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	doc := testScenarioJSON(f, "fuzz", 1)
	f.Add(doc[:len(doc)/2])
	f.Add(append(bytes.Clone(doc), "garbage"...))
	f.Add(pathSourceJSON(f))

	f.Fuzz(func(t *testing.T, body []byte) {
		s := New(Config{Workers: 1})
		defer s.Close()
		s.run = func(ctx context.Context, sc *scenario.Scenario, progress func(Progress)) (*result, error) {
			return &result{report: []byte(sc.Name + "\n"), successRatio: 1}, nil
		}
		first := post(t, s, "/v1/simulate", body)
		again := post(t, s, "/v1/simulate", body)
		if first.Code != again.Code || !bytes.Equal(first.Body.Bytes(), again.Body.Bytes()) {
			t.Fatalf("repeat answered %d %q, first answer %d %q", again.Code, again.Body, first.Code, first.Body)
		}

		wantDigest := ""
		if sc, err := scenario.Decode(bytes.NewReader(body)); err == nil && !sc.HasPathSource() {
			if wantDigest, err = sc.Digest(); err != nil {
				t.Fatal(err)
			}
		}
		if (first.Code == http.StatusOK) != (wantDigest != "") {
			t.Fatalf("status %d for a body that decodes to digest %q: %s", first.Code, wantDigest, first.Body)
		}
		for _, rec := range []*httptest.ResponseRecorder{first, again} {
			if got := rec.Header().Get("X-Scenario-Digest"); got != wantDigest {
				t.Errorf("X-Scenario-Digest %q, want %q", got, wantDigest)
			}
		}
	})
}
