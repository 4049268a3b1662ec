package main

import "testing"

// TestRun runs the example end to end as a smoke test: every failure the
// example detects ends in log.Fatal, which exits the test binary non-zero
// and fails the package.
func TestRun(t *testing.T) { main() }
