package exp

import (
	"time"

	"tinca/internal/metrics"
	"tinca/internal/stack"
)

// measured is the delta of counters and simulated time over one measured
// phase (layout/load phases are excluded by snapshotting after them).
type measured struct {
	snap metrics.Snapshot
	wall time.Duration
}

// measure runs fn on the stack and captures the counter/time delta.
func measure(s *stack.Stack, fn func() error) (measured, error) {
	snap0 := s.Rec.Snapshot()
	t0 := s.Clock.Now()
	err := fn()
	return measured{snap: s.Rec.Snapshot().Sub(snap0), wall: s.Clock.Now() - t0}, err
}

// perSecond converts a count over the measured wall time to a rate.
func (m measured) perSecond(count int64) float64 {
	if m.wall <= 0 {
		return 0
	}
	return float64(count) / m.wall.Seconds()
}

// per divides counter c by ops.
func (m measured) per(c metrics.Counter, ops int64) float64 {
	return m.snap.PerOp(c, ops)
}

// Observability is applied to every stack buildStack constructs. The
// tincabench flags -observe/-trace-out/-metrics-addr set it before any
// experiment runs; experiments execute sequentially, so the package-level
// value is not raced. Drivers that assemble devices directly (the
// commit-phase breakdown) manage their own observability.
var Observability struct {
	// Observe enables latency histograms in every stack layer.
	Observe bool
	// Tracer, when non-nil, is shared by every stack (implies Observe).
	Tracer *metrics.Tracer
	// Publish registers each stack's recorder (under its kind name) in
	// the process-wide Prometheus registry, so a live -metrics-addr
	// endpoint scrapes whatever run is in flight.
	Publish bool
}

// buildStack constructs a stack of the given kind with experiment-default
// sizing, letting mod override any field.
func buildStack(kind stack.Kind, mod func(*stack.Config)) (*stack.Stack, error) {
	cfg := stack.Config{
		Kind:     kind,
		NVMBytes: 16 << 20,
		FSBlocks: 16384, // 64MB file system
		// Both stacks batch operations into transactions the way JBD2's
		// 5-second commit window does; without batching the journal's
		// descriptor/commit overhead dominates Classic unrealistically.
		GroupCommitBlocks: 32,
		// A journal small relative to the written volume, as in any
		// steady-state system (the paper writes 20GB+ against a 128MB
		// journal): checkpointing — the second write of the double-write
		// pair — runs continuously.
		JournalBlocks: 512,
	}
	cfg.Observe = Observability.Observe
	cfg.Tracer = Observability.Tracer
	if mod != nil {
		mod(&cfg)
	}
	s, err := stack.New(cfg)
	if err == nil && Observability.Publish {
		metrics.Publish(kind.String(), s.Rec)
	}
	return s, err
}

// ratio returns a/b guarding division by zero.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// pctFewer reports how many percent fewer a is than b.
func pctFewer(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return (1 - a/b) * 100
}
