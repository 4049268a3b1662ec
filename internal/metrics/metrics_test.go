package metrics

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestAddIncGet(t *testing.T) {
	r := NewRecorder()
	r.Inc(NVMCLFlush)
	r.Add(NVMCLFlush, 4)
	if got := r.Get(NVMCLFlush); got != 5 {
		t.Fatalf("clflush = %d", got)
	}
	if got := r.Get(CacheEvict); got != 0 {
		t.Fatalf("untouched counter = %d", got)
	}
}

func TestSnapshotSubAndPerOp(t *testing.T) {
	r := NewRecorder()
	r.Add(NVMCLFlush, 10)
	s0 := r.Snapshot()
	r.Add(NVMCLFlush, 5)
	r.Add(DiskBlocksWrite, 2)
	d := r.Snapshot().Sub(s0)
	if d.Get(NVMCLFlush) != 5 || d.Get(DiskBlocksWrite) != 2 {
		t.Fatalf("delta = %v", d)
	}
	if d.PerOp(NVMCLFlush, 5) != 1 {
		t.Fatalf("perop = %v", d.PerOp(NVMCLFlush, 5))
	}
	if d.PerOp(NVMCLFlush, 0) != 0 {
		t.Fatal("division by zero not guarded")
	}
	if sum := s0.Add(d); sum != r.Snapshot() {
		t.Fatalf("s0 + delta = %v, want %v", sum, r.Snapshot())
	}
	// Snapshot immutability: later increments don't affect old snapshots.
	r.Add(NVMCLFlush, 100)
	if s0.Get(NVMCLFlush) != 10 {
		t.Fatal("snapshot mutated")
	}
	// Snapshots are values: taking and differencing them allocates nothing.
	if n := testing.AllocsPerRun(100, func() {
		d = r.Snapshot().Sub(s0)
		_ = d.PerOp(NVMCLFlush, 3)
	}); n != 0 {
		t.Fatalf("Snapshot/Sub/PerOp allocate %.0f times", n)
	}
}

// TestStringSorted checks that the exposition lists counters by name, not
// by ID: cache.read_hit is declared after nvm.clflush but sorts first.
func TestStringSorted(t *testing.T) {
	r := NewRecorder()
	r.Inc(NVMCLFlush)
	r.Inc(CacheReadHit)
	var b strings.Builder
	WritePrometheus(&b, r, "")
	s := b.String()
	if strings.Index(s, "tinca_cache_read_hit") > strings.Index(s, "tinca_nvm_clflush") {
		t.Fatal("exposition not sorted by counter name")
	}
}

func TestConcurrentCounting(t *testing.T) {
	r := NewRecorder()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Inc(TxnCommit)
			}
		}()
	}
	wg.Wait()
	if got := r.Get(TxnCommit); got != 8000 {
		t.Fatalf("commits = %d", got)
	}
}

// TestRegistryNames checks the names tables: every Counter and Hist ID has
// a non-empty name, and no two registry names, nor their Prometheus
// images, coincide (a collision would merge two series in a scrape).
func TestRegistryNames(t *testing.T) {
	names := map[string]string{}
	proms := map[string]string{}
	check := func(id, name string) {
		if name == "" {
			t.Errorf("%s has no name", id)
			return
		}
		if prev, ok := names[name]; ok {
			t.Errorf("%s and %s share the name %q", prev, id, name)
		}
		names[name] = id
		pn := promName(name)
		if prev, ok := proms[pn]; ok {
			t.Errorf("%s and %s share the Prometheus name %q", prev, id, pn)
		}
		proms[pn] = id
	}
	for c := Counter(0); c < numCounters; c++ {
		check(fmt.Sprintf("counter %d", c), c.String())
	}
	for h := Hist(0); h < numHists; h++ {
		check(fmt.Sprintf("hist %d", h), h.String())
	}
	if len(names) != int(numCounters)+int(numHists) {
		t.Fatalf("%d names for %d IDs", len(names), int(numCounters)+int(numHists))
	}
}
