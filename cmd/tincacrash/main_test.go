package main

import (
	"io"
	"os"
	"strings"
	"testing"
)

// capture runs fn with stdout redirected and returns its exit code and
// what it printed.
func capture(t *testing.T, fn func() int) (int, string) {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	old := os.Stdout
	os.Stdout = f
	rc := fn()
	os.Stdout = old
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(f)
	if err != nil {
		t.Fatal(err)
	}
	return rc, string(out)
}

// TestModes smoke-tests each mode through the function main dispatches
// to, checking the exit code the shell would see.
func TestModes(t *testing.T) {
	const faultLine = "kind=tinca boundary=0 evictp=0 fault=skip-data-flush seed=1 trace=c:/f0001"
	for _, tc := range []struct {
		name string
		run  func() int
		rc   int
		want string
	}{
		{"blackbox", func() int { return runBlackbox(7, 40, -1, 0.5) }, 0, "recovery: total"},
		{"replay-fault", func() int { return runReplay(faultLine) }, 1, "INCONSISTENCY reproduced"},
		// Tinca-only options on a Classic spec are a harness error, not a
		// consistent replay of some other configuration.
		{"replay-classic-tinca-options", func() int {
			return runReplay("kind=classic boundary=0 evictp=0 fault=skip-data-flush rings=4 l3=1 seed=1 trace=c:/f0001")
		}, 2, ""},
		{"sweep", func() int {
			return runSweep(sweepArgs{kind: "tinca", seed: 3, ops: 10, evictPs: "0,0.5,1", stride: 1, fault: "none", minimize: true})
		}, 0, "0 failures"},
		{"trials", func() int { return runRandomTrials("tinca", 3, 7, 60, -1, false) }, 0, "3 trials"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rc, out := capture(t, tc.run)
			if rc != tc.rc {
				t.Fatalf("exit code %d, want %d; output:\n%s", rc, tc.rc, out)
			}
			if !strings.Contains(out, tc.want) {
				t.Fatalf("output lacks %q:\n%s", tc.want, out)
			}
		})
	}
}
