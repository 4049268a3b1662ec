package core

import (
	"sync/atomic"

	"tinca/internal/metrics"
	"tinca/internal/sim"
)

// obs is the cache's observability harness: per-phase latency histograms
// for the commit pipeline and recovery, plus an optional
// span tracer. It exists only when Options.Observe (or a Tracer) was
// given, so the hot path pays exactly one nil check per instrumentation
// site when observability is off — the acceptance bar of the ROADMAP's
// "as fast as the hardware allows" is judged against the uninstrumented
// number.
//
// Durations are simulated nanoseconds: deltas of the shared sim.Clock
// around each phase. On a single committer that is exactly the phase's
// charged service time; with concurrent committers the delta also counts
// time charged by other goroutines while the phase ran, which is the
// simulated analogue of wall-clock contention and is precisely what the
// commit-phase breakdown experiment wants to expose. Histograms and spans
// never advance the clock themselves, so enabling observability does not
// perturb the simulated results it reports.
type obs struct {
	clock *sim.Clock
	tr    *metrics.Tracer
	seals atomic.Uint64 // seal ids for span grouping

	wait, absorb, data, entries, ring, roleSw, tail, seal *metrics.Histogram
	total, recovery                                       *metrics.Histogram
	recScan, recRedo, recUndo, recRebuild                 *metrics.Histogram
	ckpt                                                  *metrics.Histogram

	// readRetry counts seqlock retries per successful fast-path hit that
	// needed at least one (a count histogram, not nanoseconds).
	readRetry *metrics.Histogram
}

// newObs resolves every histogram once so the hot path holds plain
// pointers.
func newObs(clock *sim.Clock, rec *metrics.Recorder, tr *metrics.Tracer) *obs {
	return &obs{
		clock:      clock,
		tr:         tr,
		wait:       rec.Hist(metrics.HistCommitWait),
		absorb:     rec.Hist(metrics.HistCommitAbsorb),
		data:       rec.Hist(metrics.HistCommitData),
		entries:    rec.Hist(metrics.HistCommitEntries),
		ring:       rec.Hist(metrics.HistCommitRing),
		roleSw:     rec.Hist(metrics.HistCommitSwitch),
		tail:       rec.Hist(metrics.HistCommitTail),
		seal:       rec.Hist(metrics.HistCommitSeal),
		total:      rec.Hist(metrics.HistCommitTotal),
		recovery:   rec.Hist(metrics.HistRecovery),
		recScan:    rec.Hist(metrics.HistRecoveryScan),
		recRedo:    rec.Hist(metrics.HistRecoveryRedo),
		recUndo:    rec.Hist(metrics.HistRecoveryUndo),
		recRebuild: rec.Hist(metrics.HistRecoveryRebuild),
		ckpt:       rec.Hist(metrics.HistCheckpoint),
		readRetry:  rec.Hist(metrics.HistReadHitRetry),
	}
}

// now reads the simulated clock in ns.
func (o *obs) now() int64 { return int64(o.clock.Now()) }

// gid returns the calling goroutine's id when tracing is on (spans carry
// it as the trace thread), and 0 otherwise — histograms alone never pay
// the runtime.Stack parse.
func (o *obs) gid() int64 {
	if o.tr.Enabled() {
		return metrics.GoroutineID()
	}
	return 0
}

// phase records one phase duration and, when tracing, emits a span.
func (o *obs) phase(h *metrics.Histogram, id uint64, name string, startNS int64, g int64) int64 {
	end := o.now()
	h.Record(end - startNS)
	if o.tr.Enabled() {
		o.tr.Emit(id, name, startNS, end-startNS, g)
	}
	return end
}

// Span/phase names used by the tracer (histograms use the metrics.Hist*
// constants; spans use short names so trace viewers stay readable).
const (
	spanWait    = "seal.wait"
	spanAbsorb  = "seal.absorb"
	spanData    = "seal.data"
	spanEntries = "seal.entries"
	spanRing    = "seal.ring"
	spanSwitch  = "seal.switch"
	spanTail    = "seal.tail"
	spanSeal    = "seal"
	spanCommit  = "commit"
	spanRecover = "recovery"
	spanCkpt    = "ckpt.write"

	spanRecoverScan    = "recovery.scan"
	spanRecoverRedo    = "recovery.redo"
	spanRecoverUndo    = "recovery.undo"
	spanRecoverRebuild = "recovery.rebuild"
)

// PhaseLatency is one named histogram digest surfaced through CacheStats.
type PhaseLatency struct {
	Phase string
	metrics.LatencySummary
}

// phaseLatencies builds the typed per-phase digest for Stats. Ordering
// follows the pipeline: wait, absorb, data, entries, ring, switch, tail,
// then the aggregates. Phases with no samples are skipped.
func (o *obs) phaseLatencies() []PhaseLatency {
	if o == nil {
		return nil
	}
	hs := []*metrics.Histogram{o.wait, o.absorb, o.data, o.entries, o.ring, o.roleSw, o.tail, o.seal, o.total, o.recovery, o.recScan, o.recRedo, o.recUndo, o.recRebuild, o.ckpt}
	out := make([]PhaseLatency, 0, len(hs))
	for _, h := range hs {
		s := h.Snapshot()
		if s.Count == 0 {
			continue
		}
		out = append(out, PhaseLatency{Phase: s.Name, LatencySummary: s.Summary()})
	}
	return out
}
