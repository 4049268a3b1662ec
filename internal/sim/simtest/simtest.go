// Package simtest holds test helpers for assertions on simulated time.
package simtest

import (
	"runtime"
	"testing"
)

// OverlapShortfall reports that a concurrent run missed a threshold that
// depends on which goroutines the host actually co-runs: a speedup or
// discount on the simulated clock (the device models discount overlapped
// requests by the co-running count), or a background worker keeping ahead
// of the foreground (ROADMAP open item 1). On a host with fewer than 4 CPUs
// the shortfall says nothing about the code under test and the test is
// skipped from this point; anywhere else it is fatal. Callers assert
// everything that does not depend on host scheduling first.
func OverlapShortfall(t testing.TB, format string, args ...any) {
	t.Helper()
	if runtime.GOMAXPROCS(0) < 4 {
		t.Skipf(format+" — not enforced below GOMAXPROCS=4: the threshold needs co-running goroutines (ROADMAP open item 1)", args...)
	}
	t.Fatalf(format, args...)
}
