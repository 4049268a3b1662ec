package sim

import (
	"runtime"
	"sync/atomic"
)

// Window is the overlap model every simulated medium shares: k requests
// in flight each charge ns/min(k, depth), so k fully overlapped requests
// advance the additive clock by roughly one service time in total — but
// only when the host actually issues them concurrently. A host that
// serializes its requests (for example under a global lock) keeps the
// window at one and pays full price. A depth of 0 or 1 serializes: no
// yield, no discount, so stock profiles charge exactly their service time.
type Window struct {
	depth    int64
	inflight atomic.Int64
}

// NewWindow returns a window for a medium that overlaps up to depth
// concurrent requests.
func NewWindow(depth int) *Window { return &Window{depth: int64(depth)} }

// Enter admits a request. For an overlap-capable window it then yields:
// membership is logical, not physical — nothing in the simulator sleeps,
// so without the yield concurrent issuers on few (or one) host cores
// would almost never coincide. Every goroutine ready to issue a request
// gets to Enter before this one Charges, so logically concurrent requests
// count each other. Issuers blocked on a host lock are not runnable, so
// the yield cannot admit them.
func (w *Window) Enter() {
	w.inflight.Add(1)
	if w.depth > 1 {
		runtime.Gosched()
	}
}

// Leave retires a request admitted by Enter.
func (w *Window) Leave() { w.inflight.Add(-1) }

// Charge advances clock by one request's service time ns, discounted by
// the overlap the window grants its requests in flight, and returns the
// charged time.
func (w *Window) Charge(clock *Clock, ns int64) int64 {
	if w.depth > 1 {
		if k := min(w.inflight.Load(), w.depth); k > 1 {
			ns /= k
		}
	}
	clock.AdvanceNS(ns)
	return ns
}

// InFlight reports the requests currently admitted (a queue-depth gauge).
func (w *Window) InFlight() int64 { return w.inflight.Load() }
