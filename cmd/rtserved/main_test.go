package main

import (
	"bytes"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestFlagErrors(t *testing.T) {
	for name, args := range map[string][]string{
		"unknown-flag":   {"-bogus"},
		"positional-arg": {"extra"},
	} {
		t.Run(name, func(t *testing.T) {
			var out, errb bytes.Buffer
			if code := run(args, &out, &errb); code != 2 {
				t.Errorf("run(%v) = %d, want 2 (stderr: %s)", args, code, errb.String())
			}
		})
	}
}

// TestHTTPServerTimeouts: the daemon's server bounds how long a client
// may take over its request headers and how long an idle connection
// lives.
func TestHTTPServerTimeouts(t *testing.T) {
	hs := newHTTPServer(http.NotFoundHandler())
	if hs.ReadHeaderTimeout <= 0 || hs.IdleTimeout <= 0 {
		t.Errorf("ReadHeaderTimeout = %v, IdleTimeout = %v; want both set", hs.ReadHeaderTimeout, hs.IdleTimeout)
	}
}

func TestHelpExitsZero(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-h"}, &out, &errb); code != 0 {
		t.Errorf("run(-h) = %d, want 0", code)
	}
	if !strings.Contains(errb.String(), "-addr") {
		t.Error("usage does not mention -addr")
	}
}

func TestBadAddrFails(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-addr", "not-an-address"}, &out, &errb); code != 1 {
		t.Errorf("run(bad addr) = %d, want 1", code)
	}
}

// TestServeRoundTrip boots the real server on a free port, performs
// the port-file handshake, serves one scenario end to end over real
// HTTP, and shuts down gracefully via the test twin of SIGINT.
func TestServeRoundTrip(t *testing.T) {
	dir := t.TempDir()
	portFile := filepath.Join(dir, "port")
	testShutdown = make(chan struct{})
	defer func() { testShutdown = nil }()

	var out, errb bytes.Buffer
	codeCh := make(chan int, 1)
	go func() {
		codeCh <- run([]string{"-addr", "127.0.0.1:0", "-workers", "2", "-port-file", portFile}, &out, &errb)
	}()

	var addr string
	deadline := time.Now().Add(10 * time.Second)
	for {
		if b, err := os.ReadFile(portFile); err == nil && len(b) > 0 {
			addr = strings.TrimSpace(string(b))
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("port file never appeared; stderr: %s", errb.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
	base := "http://" + addr

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}

	scen, err := os.ReadFile(filepath.Join("..", "..", "testdata", "scenarios", "figure5.json"))
	if err != nil {
		t.Fatal(err)
	}
	post, err := http.Post(base+"/v1/simulate", "application/json", bytes.NewReader(scen))
	if err != nil {
		t.Fatal(err)
	}
	defer post.Body.Close()
	if post.StatusCode != http.StatusOK {
		t.Fatalf("simulate: %d", post.StatusCode)
	}
	if cs := post.Header.Get("X-Cache"); cs != "miss" {
		t.Errorf("X-Cache = %q, want miss", cs)
	}

	close(testShutdown)
	select {
	case code := <-codeCh:
		if code != 0 {
			t.Errorf("graceful shutdown exit code %d; stderr: %s", code, errb.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatal("server did not shut down")
	}
}
