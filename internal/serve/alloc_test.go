package serve

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
)

// hitRequest returns a server primed with figure5.json and a function
// that serves one cache hit of it through httptest.
func hitRequest(t testing.TB) (*Server, func() *httptest.ResponseRecorder) {
	t.Helper()
	body, err := os.ReadFile(filepath.Join("..", "..", "testdata", "scenarios", "figure5.json"))
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Workers: 1})
	serveOne := func() *httptest.ResponseRecorder {
		req := httptest.NewRequest("POST", "/v1/simulate?format=report", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		return rec
	}
	if rec := serveOne(); rec.Code != http.StatusOK {
		s.Close()
		t.Fatalf("priming POST: status %d: %s", rec.Code, rec.Body.String())
	}
	if rec := serveOne(); rec.Code != http.StatusOK || rec.Header().Get("X-Cache") != "hit" {
		s.Close()
		t.Fatalf("repeat POST: status %d, X-Cache %q", rec.Code, rec.Header().Get("X-Cache"))
	}
	return s, serveOne
}

// TestServeHitAllocs pins the cost of a byte-identical cache hit,
// request and recorder included. Decoding and digesting the body on
// every hit cost 160 allocations; the body memo must keep a hit at a
// third of that or less.
func TestServeHitAllocs(t *testing.T) {
	const decodePathAllocs = 160
	s, serveOne := hitRequest(t)
	defer s.Close()
	got := testing.AllocsPerRun(100, func() { serveOne() })
	if got > decodePathAllocs/3 {
		t.Errorf("a cache hit allocates %.0f times, want at most %d", got, decodePathAllocs/3)
	}
}

// BenchmarkServeHit prices one served cache hit of figure5.json
// through httptest, request and recorder included.
func BenchmarkServeHit(b *testing.B) {
	s, serveOne := hitRequest(b)
	defer s.Close()
	b.ReportAllocs()
	for b.Loop() {
		serveOne()
	}
}
