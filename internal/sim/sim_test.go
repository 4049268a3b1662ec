package sim

import (
	"sync"
	"testing"
	"time"
)

func TestClockAdvances(t *testing.T) {
	c := NewClock()
	if c.Now() != 0 {
		t.Fatal("fresh clock not at zero")
	}
	c.Advance(5 * time.Microsecond)
	c.AdvanceNS(500)
	if got := c.Now(); got != 5500*time.Nanosecond {
		t.Fatalf("now = %v", got)
	}
	c.Advance(-time.Second) // negative ignored
	c.AdvanceNS(-1)
	if got := c.Now(); got != 5500*time.Nanosecond {
		t.Fatalf("negative advance changed clock: %v", got)
	}
	c.Reset()
	if c.Now() != 0 {
		t.Fatal("reset failed")
	}
}

func TestClockConcurrent(t *testing.T) {
	c := NewClock()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.AdvanceNS(1)
			}
		}()
	}
	wg.Wait()
	if got := c.Now(); got != 8000 {
		t.Fatalf("now = %v", got)
	}
}

func TestStopwatch(t *testing.T) {
	c := NewClock()
	c.AdvanceNS(100)
	sw := NewStopwatch(c)
	c.AdvanceNS(50)
	if sw.Elapsed() != 50 {
		t.Fatalf("elapsed = %v", sw.Elapsed())
	}
	sw.Restart()
	if sw.Elapsed() != 0 {
		t.Fatal("restart did not zero")
	}
}

func TestNewRandDeterministic(t *testing.T) {
	a, b := NewRand(7), NewRand(7)
	for i := 0; i < 100; i++ {
		if a.Int63() != b.Int63() {
			t.Fatal("same seed diverged")
		}
	}
}

func TestPickRespectsWeights(t *testing.T) {
	r := NewRand(3)
	counts := [3]int{}
	weights := []int{0, 90, 10}
	for i := 0; i < 10000; i++ {
		counts[Pick(r, weights)]++
	}
	if counts[0] != 0 {
		t.Fatal("zero-weight option picked")
	}
	frac := float64(counts[1]) / 10000
	if frac < 0.85 || frac > 0.95 {
		t.Fatalf("weight-90 fraction = %v", frac)
	}
}

func TestZipfSkewed(t *testing.T) {
	r := NewRand(5)
	z := Zipf(r, 1.2, 999)
	low := 0
	for i := 0; i < 10000; i++ {
		if z.Uint64() < 10 {
			low++
		}
	}
	if low < 5000 {
		t.Fatalf("zipf not skewed: only %d/10000 in the hot decile", low)
	}
	// theta <= 1 is clamped rather than panicking.
	_ = Zipf(r, 0.5, 10)
}

// TestWindowCharge pins the overlap rule: k requests in flight each pay
// ns/min(k, depth), and a depth of 0 or 1 never discounts.
func TestWindowCharge(t *testing.T) {
	for _, tc := range []struct {
		depth, inflight int
		want            int64
	}{
		{0, 3, 1200},
		{1, 3, 1200},
		{4, 1, 1200},
		{4, 3, 400},
		{2, 3, 600},
	} {
		w, c := NewWindow(tc.depth), NewClock()
		for i := 0; i < tc.inflight; i++ {
			w.Enter()
		}
		if got := w.Charge(c, 1200); got != tc.want || int64(c.Now()) != tc.want {
			t.Errorf("depth %d, %d in flight: charged %d (clock %d), want %d",
				tc.depth, tc.inflight, got, c.Now(), tc.want)
		}
		if w.InFlight() != int64(tc.inflight) {
			t.Errorf("InFlight = %d, want %d", w.InFlight(), tc.inflight)
		}
		for i := 0; i < tc.inflight; i++ {
			w.Leave()
		}
		if w.InFlight() != 0 {
			t.Errorf("InFlight after Leave = %d", w.InFlight())
		}
	}
}
