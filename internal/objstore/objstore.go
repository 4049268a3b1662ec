// Package objstore simulates an S3-like object store and mounts it as a
// capacity tier (L3) behind the block device the NVM cache destages to.
//
// The store itself (this file) is deliberately simple: named objects of
// whole bytes, a per-request latency floor plus per-MB transfer time, a
// bounded in-flight request window with blockdev-style overlap charging,
// and a price model (per-request + per-GB, accumulated in nano-dollars)
// so experiments can report cost-vs-latency tradeoffs, not just latency.
//
// The interesting machinery is the Tier (tier.go): a small block device
// (L2) fronting the store, with a persistent slot map, an async batched
// uploader, a destage-to-object compactor and a sequential/strided
// read-ahead prefetcher. The cache layer above mounts the Tier through
// the blockdev.Store interface and never learns the difference.
package objstore

import (
	"fmt"
	"sync"
	"sync/atomic"

	"tinca/internal/blockdev"
	"tinca/internal/metrics"
	"tinca/internal/sim"
)

// BlockSize re-exports the stack-wide 4KB block unit.
const BlockSize = blockdev.BlockSize

// Profile describes an object store service's latency and price model.
type Profile struct {
	Name string
	// RequestNS is the per-request latency floor (connection + first
	// byte), paid by every GET/PUT regardless of size.
	RequestNS int64
	// NSPerMB is the transfer time per MiB moved in either direction
	// (1e7 ≈ 100MB/s per stream).
	NSPerMB int64
	// Parallel is how many in-flight requests the service overlaps, the
	// sim.Window model blockdev uses for NCQ. 0 or 1 serializes.
	Parallel int
	// MaxInflight bounds concurrently admitted requests; callers past the
	// bound block until a slot frees. 0 defaults to 2*Parallel (min 1).
	MaxInflight int
	// Price model, in nano-dollars (1e-9 $) so integer accumulation is
	// exact: per PUT request, per GET request, and per GB transferred.
	PutCostNano   int64
	GetCostNano   int64
	PerGBCostNano int64
}

// S3 models a same-region S3-class service: ~4ms to first byte, ~100MB/s
// per stream, 16-way request overlap, $5/million PUTs, $0.40/million GETs,
// $0.02/GB transfer+storage equivalent.
var S3 = Profile{
	Name:          "S3",
	RequestNS:     4_000_000,
	NSPerMB:       10_000_000,
	Parallel:      16,
	MaxInflight:   32,
	PutCostNano:   5_000,
	GetCostNano:   400,
	PerGBCostNano: 20_000_000,
}

// NullStore is an infinitely fast, free object store for unit tests.
var NullStore = Profile{Name: "null-objstore", Parallel: 1, MaxInflight: 64}

// Store is a simulated object store: uint64-keyed objects of whole bytes.
// All methods are safe for concurrent use.
type Store struct {
	mu      sync.Mutex
	objects map[uint64][]byte
	prof    Profile
	clock   *sim.Clock
	rec     *metrics.Recorder

	sem chan struct{} // MaxInflight admission bound
	win *sim.Window   // Parallel overlap window (logical concurrency)

	puts      atomic.Int64
	gets      atomic.Int64
	getMisses atomic.Int64
	bytesUp   atomic.Int64
	bytesDown atomic.Int64
	costNano  atomic.Int64
}

// StoreStats is a typed counter snapshot, cumulative since NewStore.
type StoreStats struct {
	Puts        int64
	Gets        int64
	GetMisses   int64
	BytesUp     int64
	BytesDown   int64
	CostNano    int64 // accumulated price, nano-dollars
	Objects     int64 // objects currently stored
	BytesStored int64
}

// CostDollars converts the accumulated price to dollars.
func (s StoreStats) CostDollars() float64 { return float64(s.CostNano) / 1e9 }

// NewStore creates an empty object store charging the given clock and
// recorder.
func NewStore(prof Profile, clock *sim.Clock, rec *metrics.Recorder) *Store {
	if clock == nil || rec == nil {
		panic("objstore: nil clock or recorder")
	}
	maxIn := prof.MaxInflight
	if maxIn <= 0 {
		maxIn = 2 * prof.Parallel
		if maxIn < 1 {
			maxIn = 1
		}
	}
	return &Store{
		objects: make(map[uint64][]byte),
		prof:    prof,
		clock:   clock,
		rec:     rec,
		sem:     make(chan struct{}, maxIn),
		win:     sim.NewWindow(prof.Parallel),
	}
}

// Profile returns the service profile.
func (s *Store) Profile() Profile { return s.prof }

// admit takes a MaxInflight slot, then enters the overlap window.
func (s *Store) admit() {
	s.sem <- struct{}{}
	s.win.Enter()
}

func (s *Store) release() {
	s.win.Leave()
	<-s.sem
}

func (s *Store) serviceNS(bytes int) int64 {
	return s.prof.RequestNS + int64(bytes)*s.prof.NSPerMB/(1<<20)
}

func (s *Store) bill(reqNano int64, bytes int) {
	nano := reqNano + int64(bytes)*s.prof.PerGBCostNano/(1<<30)
	s.costNano.Add(nano)
	s.rec.Add(metrics.ObjCostNanoDollars, nano)
}

// Put durably stores data as object key. The object is a full replacement
// (no partial writes, like S3); durability is immediate on return, the
// consistency problems the tier studies all live above the store.
func (s *Store) Put(key uint64, data []byte) {
	d := make([]byte, len(data))
	copy(d, data)
	s.admit()
	defer s.release()
	s.mu.Lock()
	s.objects[key] = d
	s.mu.Unlock()
	s.puts.Add(1)
	s.bytesUp.Add(int64(len(data)))
	s.rec.Inc(metrics.ObjPuts)
	s.rec.Add(metrics.ObjBytesUp, int64(len(data)))
	s.bill(s.prof.PutCostNano, len(data))
	s.win.Charge(s.clock, s.serviceNS(len(data)))
	s.rec.Observe(metrics.HistObjPut, s.serviceNS(len(data)))
}

// Get copies object key into p, reporting false (and zeroing p) when the
// object was never stored. p is sized by the caller; a stored object
// shorter than p zero-fills the remainder. A miss still pays the request
// latency floor and the per-request price — the service has no free way
// to say 404.
func (s *Store) Get(key uint64, p []byte) bool {
	s.admit()
	defer s.release()
	s.mu.Lock()
	obj, ok := s.objects[key]
	n := copy(p, obj)
	s.mu.Unlock()
	for i := n; i < len(p); i++ {
		p[i] = 0
	}
	s.gets.Add(1)
	s.rec.Inc(metrics.ObjGets)
	if !ok {
		s.getMisses.Add(1)
		s.rec.Inc(metrics.ObjGetMisses)
		s.bill(s.prof.GetCostNano, 0)
		s.win.Charge(s.clock, s.prof.RequestNS)
		s.rec.Observe(metrics.HistObjGet, s.prof.RequestNS)
		return false
	}
	s.bytesDown.Add(int64(n))
	s.rec.Add(metrics.ObjBytesDown, int64(n))
	s.bill(s.prof.GetCostNano, n)
	s.win.Charge(s.clock, s.serviceNS(n))
	s.rec.Observe(metrics.HistObjGet, s.serviceNS(n))
	return true
}

// Contains reports whether object key is stored, without a request (a
// client-side manifest check, free and instantaneous).
func (s *Store) Contains(key uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.objects[key]
	return ok
}

// Stats returns the store's typed counters.
func (s *Store) Stats() StoreStats {
	st := StoreStats{
		Puts:      s.puts.Load(),
		Gets:      s.gets.Load(),
		GetMisses: s.getMisses.Load(),
		BytesUp:   s.bytesUp.Load(),
		BytesDown: s.bytesDown.Load(),
		CostNano:  s.costNano.Load(),
	}
	s.mu.Lock()
	st.Objects = int64(len(s.objects))
	for _, o := range s.objects {
		st.BytesStored += int64(len(o))
	}
	s.mu.Unlock()
	return st
}

func (s *Store) String() string {
	st := s.Stats()
	return fmt.Sprintf("objstore(%s): %d objects, %d puts, %d gets, $%.6f",
		s.prof.Name, st.Objects, st.Puts, st.Gets, st.CostDollars())
}
