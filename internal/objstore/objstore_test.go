package objstore

import (
	"bytes"
	"sync"
	"testing"

	"tinca/internal/metrics"
	"tinca/internal/sim"
	"tinca/internal/sim/simtest"
)

func testStore(prof Profile) (*Store, *sim.Clock) {
	clock := sim.NewClock()
	return NewStore(prof, clock, metrics.NewRecorder()), clock
}

func TestStoreRoundTrip(t *testing.T) {
	s, _ := testStore(NullStore)
	obj := make([]byte, 3*BlockSize)
	for i := range obj {
		obj[i] = byte(i * 7)
	}
	s.Put(42, obj)
	got := make([]byte, len(obj))
	if !s.Get(42, got) {
		t.Fatal("stored object reported missing")
	}
	if !bytes.Equal(got, obj) {
		t.Fatal("object content corrupted")
	}
	if !s.Contains(42) || s.Contains(43) {
		t.Fatal("Contains wrong")
	}
}

func TestStoreMissZeroFills(t *testing.T) {
	s, _ := testStore(NullStore)
	p := make([]byte, BlockSize)
	for i := range p {
		p[i] = 0xff
	}
	if s.Get(7, p) {
		t.Fatal("missing object reported present")
	}
	for i := range p {
		if p[i] != 0 {
			t.Fatal("miss did not zero-fill")
		}
	}
	if st := s.Stats(); st.GetMisses != 1 {
		t.Fatalf("GetMisses = %d", st.GetMisses)
	}
}

func TestStoreShortObjectZeroFillsTail(t *testing.T) {
	s, _ := testStore(NullStore)
	s.Put(1, []byte{9, 9})
	p := make([]byte, 8)
	for i := range p {
		p[i] = 0xff
	}
	if !s.Get(1, p) {
		t.Fatal("missing")
	}
	want := []byte{9, 9, 0, 0, 0, 0, 0, 0}
	if !bytes.Equal(p, want) {
		t.Fatalf("got %v", p)
	}
}

func TestStoreLatencyModel(t *testing.T) {
	prof := Profile{Name: "t", RequestNS: 1000, NSPerMB: 1 << 20, Parallel: 1}
	s, clock := testStore(prof)
	s.Put(1, make([]byte, 1<<20)) // 1000 + 1MiB * 1ns/B = 1000 + 1048576... NSPerMB=1<<20 -> 1<<20 ns per MiB
	want := int64(1000 + 1<<20)
	if got := int64(clock.Now()); got != want {
		t.Fatalf("Put charged %d, want %d", got, want)
	}
}

func TestStoreCostModel(t *testing.T) {
	// PerGBCostNano of 1<<30 makes the transfer price 1 nano-dollar per
	// byte, so the arithmetic is exact at test-friendly sizes.
	prof := Profile{Name: "t", Parallel: 1,
		PutCostNano: 5000, GetCostNano: 400, PerGBCostNano: 1 << 30}
	s, _ := testStore(prof)
	s.Put(1, make([]byte, 4096))
	st := s.Stats()
	want := int64(5000 + 4096)
	if st.CostNano != want {
		t.Fatalf("cost = %d nano-dollars, want %d", st.CostNano, want)
	}
	s.Get(1, make([]byte, 4096))
	st = s.Stats()
	want += 400 + 4096
	if st.CostNano != want {
		t.Fatalf("cost after get = %d, want %d", st.CostNano, want)
	}
	if st.CostDollars() <= 0 {
		t.Fatal("CostDollars not positive")
	}
}

// Concurrent GETs against an overlap-capable profile should advance the
// clock far less than the same GETs issued serially — the request-window
// discount that makes prefetching worth anything.
func TestStoreOverlapDiscount(t *testing.T) {
	const n = 8
	prof := Profile{Name: "t", RequestNS: 1_000_000, Parallel: n, MaxInflight: n}
	serial, clockS := testStore(prof)
	for i := uint64(0); i < n; i++ {
		serial.Get(i, make([]byte, BlockSize))
	}
	serialNS := int64(clockS.Now())

	conc, clockC := testStore(prof)
	var wg sync.WaitGroup
	for i := uint64(0); i < n; i++ {
		wg.Add(1)
		go func(k uint64) {
			defer wg.Done()
			conc.Get(k, make([]byte, BlockSize))
		}(i)
	}
	wg.Wait()
	concNS := int64(clockC.Now())
	if concNS*2 >= serialNS {
		simtest.OverlapShortfall(t, "no overlap discount: serial %dns, concurrent %dns", serialNS, concNS)
	}
}
