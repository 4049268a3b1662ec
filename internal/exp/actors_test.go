package exp

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
)

// TestRunActors: every actor runs once, on one P, every actor error comes
// back joined, and the caller's P count is restored.
func TestRunActors(t *testing.T) {
	before := runtime.GOMAXPROCS(0)
	var ran, procs atomic.Int64
	errOdd := errors.New("odd actor")
	err := runActors(5, func(i int) error {
		ran.Add(1)
		procs.Store(int64(runtime.GOMAXPROCS(0)))
		if i%2 == 1 {
			return fmt.Errorf("actor %d: %w", i, errOdd)
		}
		return nil
	})
	if ran.Load() != 5 {
		t.Fatalf("%d actors ran, want 5", ran.Load())
	}
	if procs.Load() != 1 {
		t.Fatalf("actors ran at GOMAXPROCS=%d, want 1", procs.Load())
	}
	if !errors.Is(err, errOdd) {
		t.Fatalf("err = %v, want the actors' errors", err)
	}
	for _, want := range []string{"actor 1: odd actor", "actor 3: odd actor"} {
		if !slices.Contains(strings.Split(err.Error(), "\n"), want) {
			t.Fatalf("err = %q, missing %q", err, want)
		}
	}
	if got := runtime.GOMAXPROCS(0); got != before {
		t.Fatalf("GOMAXPROCS = %d after runActors, want %d", got, before)
	}
	if err := runActors(3, func(int) error { return nil }); err != nil {
		t.Fatalf("no actor failed, got %v", err)
	}
}
