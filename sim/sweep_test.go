package sim

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"
)

// TestSweepArtefactsPinned pins the x4 comparison and the x11, x13,
// x14 and x15 differential sweeps byte for byte: each registry entry,
// run at its defaults, must reproduce the recorded SHA-256 of its
// rendered text and of its JSON-encoded data. A refactor of the sweep
// harness may change how a sweep runs, never what it prints.
func TestSweepArtefactsPinned(t *testing.T) {
	if raceEnabled {
		t.Skip("the unraced go test run checks the pins; the instrumented rerun only slows CI")
	}
	const (
		x4Text = "9f2c16136cb2ce34e463f019034fb663caba45bc804a9621a6822e614b7a6273"
		x4Data = "6c0b5eaf94db1f1524e0869ad5688ba1cf0fbda6c56e7fa1b34f84d88965db60"
	)
	pins := []struct {
		name       string
		stream     bool
		text, data string
	}{
		{"x4", false, x4Text, x4Data},
		// Streamed collection must not move a digit of the x4 table.
		{"x4", true, x4Text, x4Data},
		{"x11", false,
			"b8700b86388dfc32ec5b4d15ec0978114d28b0707e3919d3eb3e9d32feec4fae",
			"cdd80319e87b44e30b7944b00ae37aa5b6e621a5c6653aa03e7eb8da97a7eaf9"},
		{"x13", false,
			"0e052819b3355165864db92a4c4449ef7afdfa4ba5000ff8e0e75b5a8c5656f0",
			"5c89a7307fe160284dfc6df0ade643e30625928b5c20733b42f29f42334b2eb9"},
		{"x14", false,
			"825e3fac668dbb2b1756f3de6f4d4a5061ae22b7b09499e775b2ab553435bc37",
			"70166a76023d03892f3a53d046f287285b361b70bbd3c89788cb367815160706"},
		{"x15", false,
			"70c2e3b02edd746a806b31451e649de91147aa23f62ca7cbebe6c3f71789f4b9",
			"0911dbf86870552c1514ff31eec4f39aae157d54878da2b690580a8d3fbed2d5"},
	}
	for _, pin := range pins {
		label := pin.name
		if pin.stream {
			label += "/stream"
		}
		t.Run(label, func(t *testing.T) {
			e, ok := LookupExperiment(pin.name)
			if !ok {
				t.Fatalf("experiment %q not registered", pin.name)
			}
			res, err := e.Run(context.Background(), RunOptions{Stream: pin.stream})
			if err != nil {
				t.Fatal(err)
			}
			data, err := json.Marshal(res.Data)
			if err != nil {
				t.Fatal(err)
			}
			sum := func(b []byte) string {
				h := sha256.Sum256(b)
				return hex.EncodeToString(h[:])
			}
			if got := sum([]byte(res.Text)); got != pin.text {
				t.Errorf("text sha256 = %s, want %s", got, pin.text)
			}
			if got := sum(data); got != pin.data {
				t.Errorf("data sha256 = %s, want %s", got, pin.data)
			}
		})
	}
}
