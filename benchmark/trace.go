package main

import (
	"bufio"
	"fmt"
	"math/bits"
	"os"
	"path/filepath"
	"sync"
	"time"

	"tinca/internal/sim"
)

// The traced run wraps every public seam between layers with a span
// recorder. Everything here lives in the benchmark: the program under test
// is not edited, so layers without a seam (pmem under core and classic, the
// disk under classic) stay inside their caller's self time.

type layerID uint8

const (
	layerWorkload layerID = iota
	layerFS
	layerCore
	layerJBD
	layerClassic
	layerBlockdev
	nLayers
)

type spanKind uint8

const (
	kOp spanKind = iota
	kFSRead
	kFSWrite
	kFSFsync
	kFSMeta
	kFSMount
	// Backend spans come in the same order for the core and jbd layers, so
	// the backend wrapper adds a backend* offset to its layer's first kind.
	kCoreRead
	kCoreStage
	kCoreCommit
	kCoreSync
	kCoreRecover
	kJBDRead
	kJBDStage
	kJBDCommit
	kJBDSync
	kJBDRecover
	kClassicRead
	kClassicWrite
	kDiskRead
	kDiskWrite
	nKinds
)

const (
	backendRead = iota
	backendStage
	backendCommit
	backendSync
)

var kindInfo = [nKinds]struct {
	name  string
	layer layerID
}{
	kOp:           {"workload.op", layerWorkload},
	kFSRead:       {"fs.read", layerFS},
	kFSWrite:      {"fs.write", layerFS},
	kFSFsync:      {"fs.fsync", layerFS},
	kFSMeta:       {"fs.meta", layerFS},
	kFSMount:      {"fs.mount", layerFS},
	kCoreRead:     {"core.read", layerCore},
	kCoreStage:    {"core.stage", layerCore},
	kCoreCommit:   {"core.commit", layerCore},
	kCoreSync:     {"core.sync", layerCore},
	kCoreRecover:  {"core.recover", layerCore},
	kJBDRead:      {"jbd.read", layerJBD},
	kJBDStage:     {"jbd.stage", layerJBD},
	kJBDCommit:    {"jbd.commit", layerJBD},
	kJBDSync:      {"jbd.sync", layerJBD},
	kJBDRecover:   {"jbd.recover", layerJBD},
	kClassicRead:  {"classic.read", layerClassic},
	kClassicWrite: {"classic.write", layerClassic},
	kDiskRead:     {"blockdev.read", layerBlockdev},
	kDiskWrite:    {"blockdev.write", layerBlockdev},
}

// maxTraceSpans bounds the spans kept for the trace file; the aggregates
// cover every span of the measured phase regardless.
const maxTraceSpans = 100_000

// spanRec is one finished span as written to the trace file.
type spanRec struct {
	id, parent, op uint32
	kind           spanKind
	lane           uint8
	h0, h1         int64 // host ns since the tracer started
	s0, s1         int64 // simulated ns
}

type frame struct {
	id             uint32
	kind           spanKind
	h0, s0         int64
	childH, childS int64
}

type lane struct {
	stack []frame
	op    uint32
	// lastH/lastS chain root spans: an op's span starts where the previous
	// one ended, so the roots tile the measured phase without gaps and the
	// tracer's own bookkeeping lands in the workload layer's self time.
	lastH, lastS int64
	chained      bool
}

type layerAgg struct {
	calls    int64
	selfHost int64
	selfSim  int64
}

// tracer records spans for up to two client lanes plus, when two clients
// run, a third lane for everything below the file system: the FS lock
// serialises those calls, and from outside the program there is no telling
// which client's operation a backend call belongs to.
type tracer struct {
	mu    sync.Mutex
	on    bool // flipped only while no load goroutine runs
	clock *sim.Clock
	t0    time.Time

	lanes     [3]lane
	lowerLane int
	nextID    uint32

	agg      [nLayers]layerAgg
	rootHost int64 // summed durations of root op spans
	rootSim  int64
	// Spans that ended at the bottom of the lower lane while clients have
	// lanes of their own: children of some fs span, subtracted from the fs
	// layer's self time in aggregate.
	orphanHost, orphanSim int64

	hostHist [nKinds]*hist
	simHist  [nKinds]*hist
	spans    []spanRec
	total    int64
}

func newTracer(clock *sim.Clock, clients int) *tracer {
	t := &tracer{clock: clock, t0: time.Now(), spans: make([]spanRec, 0, maxTraceSpans)}
	if clients > 1 {
		t.lowerLane = clients
	}
	for i := range t.lanes {
		t.lanes[i].stack = make([]frame, 0, 8)
	}
	for _, s := range spanLatencies {
		t.hostHist[s.kind] = &hist{}
		if s.sim {
			t.simHist[s.kind] = &hist{}
		}
	}
	return t
}

func (t *tracer) now() (host, simNS int64) {
	return int64(time.Since(t.t0)), int64(t.clock.Now())
}

// start switches recording on at the beginning of a measured phase.
func (t *tracer) start() {
	t.on = true
	for i := range t.lanes {
		t.lanes[i].chained = false
	}
}

func (t *tracer) begin(ln int, kind spanKind) {
	t.mu.Lock()
	l := &t.lanes[ln]
	h, s := t.now()
	if kind == kOp {
		l.op++
		if l.chained {
			h, s = l.lastH, l.lastS
		}
	}
	t.nextID++
	l.stack = append(l.stack, frame{id: t.nextID, kind: kind, h0: h, s0: s})
	t.mu.Unlock()
}

func (t *tracer) end(ln int) {
	t.mu.Lock()
	t.endLocked(ln)
	t.mu.Unlock()
}

func (t *tracer) endLocked(ln int) {
	l := &t.lanes[ln]
	f := l.stack[len(l.stack)-1]
	l.stack = l.stack[:len(l.stack)-1]
	h1, s1 := t.now()
	dh, ds := h1-f.h0, s1-f.s0

	a := &t.agg[kindInfo[f.kind].layer]
	a.calls++
	a.selfHost += dh - f.childH
	a.selfSim += ds - f.childS

	var parent uint32
	switch {
	case len(l.stack) > 0:
		p := &l.stack[len(l.stack)-1]
		p.childH += dh
		p.childS += ds
		parent = p.id
	case f.kind == kOp:
		t.rootHost += dh
		t.rootSim += ds
		l.lastH, l.lastS, l.chained = h1, s1, true
	case ln == t.lowerLane && t.lowerLane != 0:
		t.orphanHost += dh
		t.orphanSim += ds
	}

	if hh := t.hostHist[f.kind]; hh != nil {
		hh.record(dh)
	}
	if sh := t.simHist[f.kind]; sh != nil {
		sh.record(ds)
	}
	t.total++
	if len(t.spans) < cap(t.spans) {
		t.spans = append(t.spans, spanRec{id: f.id, parent: parent, op: l.op,
			kind: f.kind, lane: uint8(ln), h0: f.h0, h1: h1, s0: f.s0, s1: s1})
	}
}

// abandon closes every open span as of now. An injected crash unwinds
// through the wrappers as a panic, so their end calls never run.
func (t *tracer) abandon() {
	t.mu.Lock()
	for ln := range t.lanes {
		for len(t.lanes[ln].stack) > 0 {
			t.endLocked(ln)
		}
	}
	t.mu.Unlock()
}

// selfTotals returns each layer's self time with the lower lane's orphans
// moved out of the fs layer, and the column sums.
func (t *tracer) selfTotals() (agg [nLayers]layerAgg, sumHost, sumSim int64) {
	agg = t.agg
	agg[layerFS].selfHost -= t.orphanHost
	agg[layerFS].selfSim -= t.orphanSim
	for _, a := range agg {
		sumHost += a.selfHost
		sumSim += a.selfSim
	}
	return agg, sumHost, sumSim
}

// writeChrome writes the kept spans as Chrome trace_event JSON (load it in
// chrome://tracing or Perfetto). ts/dur are host microseconds; simulated
// time, parent span and op id ride in args.
func (t *tracer) writeChrome(path string) (err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintf(w, `{"displayTimeUnit":"ns","otherData":{"spans_total":%d,"spans_kept":%d},"traceEvents":[`, t.total, len(t.spans))
	for i, s := range t.spans {
		if i > 0 {
			w.WriteByte(',')
		}
		k := kindInfo[s.kind]
		fmt.Fprintf(w, "\n"+`{"name":%q,"cat":%q,"ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"id":%d,"parent":%d,"op":%d,"sim_start_ns":%d,"sim_ns":%d}}`,
			k.name, tracedLayers[k.layer], s.lane, float64(s.h0)/1e3, float64(s.h1-s.h0)/1e3,
			s.id, s.parent, s.op, s.s0, s.s1-s.s0)
	}
	fmt.Fprint(w, "\n]}\n")
	return w.Flush()
}

// hist is a log-linear histogram: 64 sub-buckets per power of two, so a
// reported quantile is within 1.6% of the sample it stands for.
type hist struct {
	n   int64
	bkt [64 * histSub]int64
}

const (
	histSubShift = 6
	histSub      = 1 << histSubShift
)

func histBucket(v int64) int {
	if v < histSub {
		if v < 0 {
			v = 0
		}
		return int(v)
	}
	oct := bits.Len64(uint64(v)) - 1
	sub := (v >> (uint(oct) - histSubShift)) & (histSub - 1)
	return (oct-histSubShift+1)*histSub + int(sub)
}

// histBounds returns bucket i's lowest value and its width.
func histBounds(i int) (lo, width float64) {
	if i < histSub {
		return float64(i), 1
	}
	oct := uint(i/histSub + histSubShift - 1)
	w := int64(1) << (oct - histSubShift)
	return float64(int64(1)<<oct + int64(i%histSub)*w), float64(w)
}

func (h *hist) record(v int64) {
	h.n++
	h.bkt[histBucket(v)]++
}

func (h *hist) merge(o *hist) {
	h.n += o.n
	for i, c := range o.bkt {
		h.bkt[i] += c
	}
}

// quantile interpolates within the bucket that holds the q-th sample.
func (h *hist) quantile(q float64) float64 {
	if h == nil || h.n == 0 {
		return 0
	}
	rank := q*float64(h.n-1) + 1
	var seen float64
	for i, c := range h.bkt {
		if c > 0 && seen+float64(c) >= rank {
			lo, width := histBounds(i)
			return lo + width*(rank-seen)/float64(c)
		}
		seen += float64(c)
	}
	return 0
}
