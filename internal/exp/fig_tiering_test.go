package exp

import (
	"testing"

	"tinca/internal/sim/simtest"
)

func TestColdStartPrefetchAndUploaderBudget(t *testing.T) {
	tb, err := ColdStartWarmup(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 6 {
		t.Fatalf("expected 4 scan + 2 writer rows, got %d", len(tb.Rows))
	}
	// All three thresholds below price request overlap (prefetch fetches,
	// upload-lane PUTs) on the simulated clock, so each is an overlap
	// shortfall when missed.
	if s4, s8 := tb.Metrics["prefetch_speedup_4w_x"], tb.Metrics["prefetch_speedup_x"]; s8 < s4*0.9 {
		simtest.OverlapShortfall(t, "speedup not roughly monotone in workers: 4w=%.2fx 8w=%.2fx", s4, s8)
	}
	// The acceptance budget: a live upload pipeline may slow the
	// foreground writer by at most 5%.
	if pct := tb.Metrics["uploader_overhead_pct"]; pct > 5 {
		simtest.OverlapShortfall(t, "uploader foreground overhead %.1f%% > 5%%", pct)
	}
	// The headline gate: 8 prefetch workers vs none on a cold sequential
	// scan (full-scale target is 4x; 2x is the floor at any scale because
	// even two overlapped fetches halve the request train).
	if s := tb.Metrics["prefetch_speedup_x"]; s < 2 {
		simtest.OverlapShortfall(t, "prefetch speedup %.2fx < 2x", s)
	}
}

func TestCapacityCostShape(t *testing.T) {
	tb, err := CapacityCost(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 3 {
		t.Fatalf("expected 3 object-size rows, got %d", len(tb.Rows))
	}
	// Under uniform random point reads, growing the object size must
	// show the trade the figure exists to expose: more bytes dragged
	// per useful byte, more dollars per application GB, fatter GET tail.
	for _, m := range []string{"capacity_read_amp", "capacity_dollars_per_gb", "capacity_get_p99_ms"} {
		small := tb.Metrics[m+"_32k"]
		mid := tb.Metrics[m+"_128k"]
		big := tb.Metrics[m+"_512k"]
		if !(small < mid && mid < big) {
			t.Fatalf("%s not increasing with object size: 32k=%.3f 128k=%.3f 512k=%.3f", m, small, mid, big)
		}
	}
	if tb.Metrics["capacity_reads_per_sec_32k"] <= tb.Metrics["capacity_reads_per_sec_512k"] {
		t.Fatal("small objects should serve random reads faster than 512KB objects")
	}
}
