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
			return runReplay("kind=classic boundary=0 evictp=0 fault=skip-data-flush rings=4 seed=1 trace=c:/f0001")
		}, 2, ""},
		// l3 names no replay option: an unknown field is a harness error.
		{"replay-l3-unknown", func() int {
			return runReplay("kind=tinca boundary=0 evictp=0 fault=none l3=1 seed=1 trace=c:/f0001")
		}, 2, ""},
		// A line from outside may not make the decoder allocate what it
		// names, nor carry a path the encoder could not print back.
		{"replay-over-cap", func() int {
			return runReplay("kind=tinca boundary=0 evictp=0 fault=none seed=1 trace=c:/f0001|a:/f0001:p1099511627776.7")
		}, 2, ""},
		// 48 appends of 1 MiB and no crash: more than the trial file
		// system holds is a harness error, not an inconsistency.
		{"replay-fs-full", func() int {
			return runReplay("kind=tinca boundary=-1 evictp=0 fault=none seed=1 trace=c:/a|" +
				strings.Repeat("a:/a:p1048576.7|", 47) + "a:/a:p1048576.7")
		}, 2, ""},
		{"replay-eq-path", func() int {
			return runReplay("kind=tinca boundary=0 evictp=0 fault=none seed=1 trace=c:/a=b")
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
