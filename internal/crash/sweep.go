// Exhaustive crash-point sweeps (DESIGN.md §5). Where Trial samples one
// random crash point, Sweep enumerates *every* NVM persist-op boundary a
// workload spans — pmem.Device counts Store/Store8/Store16/CLFlush/SFence
// as the boundary space — and runs one deterministic trial per
// (boundary, evictP) pair, so a persist-ordering bug cannot hide between
// random samples.
//
// Two oracles:
//
//   - Serial (GroupCommitBlocks = 0): op = transaction, so the recovered
//     state must equal the shadow model exactly before or after the one
//     in-flight op (crash.Trial's oracle, run at every boundary).
//
//   - Group (GroupCommitBlocks > 0, concurrent committers): ops from
//     several workers coalesce into batches, so exact per-op equality is
//     unsound. Instead each worker's recovered namespace must equal one
//     of its acknowledged prefixes — at least its proven-durable floor
//     (derived from backend-commit counter observations), at most its
//     full trace plus the in-flight op — and never a hybrid inside a
//     batch. Raw core.Txn committers additionally pin down batch
//     atomicity at the block layer: each transaction's block set must
//     recover from a single generation, and every seal the commit hook
//     reported before the crash must be durable.
package crash

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"tinca/internal/core"
	"tinca/internal/flight"
	"tinca/internal/pmem"
	"tinca/internal/sim"
	"tinca/internal/stack"
)

// Stack geometry shared by every trial (same as the historical Trial).
const (
	sweepNVMBytes      = 4 << 20
	sweepFSBlocks      = 8192
	sweepJournalBlocks = 256
	// rawBlocksPerTxn is the block count of one raw committer
	// transaction; the blocks live in the spare disk region past the FS
	// area, so raw txns and FS txns share the cache but never a block.
	rawBlocksPerTxn = 4
)

// GroupConfig enables the group-commit oracle.
type GroupConfig struct {
	// Blocks is the FS GroupCommitBlocks threshold; 0 selects the serial
	// per-op oracle.
	Blocks int
	// FSWorkers is the number of concurrent file-system op streams, each
	// in its own "/w<i>-" namespace (default 4 when Blocks > 0).
	FSWorkers int
	// RawCommitters is the number of concurrent direct core.Txn streams
	// (Tinca only) verifying block-level batch atomicity.
	RawCommitters int
}

// SweepConfig parameterizes a sweep.
type SweepConfig struct {
	Kind    stack.Kind
	Seed    int64
	Ops     int       // trace length (per worker in group mode); default 100
	EvictPs []float64 // eviction probabilities; default {0, 0.5, 1}
	// Stride sweeps every Stride-th boundary (default 1 = exhaustive).
	Stride int64
	// MaxBoundaries, when positive, subsamples the boundary set evenly to
	// at most this many points (CI time cap).
	MaxBoundaries int
	Workers       int        // parallel trial runners; default GOMAXPROCS
	Fault         core.Fault // injected protocol violation (Tinca only)
	// Checkpoint runs every Tinca trial with the checkpoint writer firing
	// at EVERY commit point (CheckpointIntervalNS = 1), so the boundary
	// enumeration visits every persist inside the checkpoint frame/journal
	// writes and the oracle verifies recovery through the checkpoint path.
	Checkpoint bool
	// Rings > 1 runs every Tinca trial on the multi-ring commit layout
	// (core.Options.CommitRings), so the boundary enumeration visits every
	// persist of the per-ring seal protocol — including the multi-ring
	// Tail-persist window of cross-shard seals — and the flight oracle
	// goes per ring.
	Rings int
	// L3 runs every Tinca trial on the tiered stack (DESIGN.md §16): a
	// small L2 disk plus object store behind the cache, with the upload
	// and prefetch pipelines live. The tier adds no NVM persists (its
	// durability lives on the L2 slot map and in the store), so the
	// boundary space is unchanged — what the sweep adds is the oracle
	// checking that recovery through tier re-attach loses nothing at
	// any NVM persist boundary.
	L3    bool
	Group GroupConfig
	// Progress, when non-nil, is called after every trial with completed
	// and total trial counts and failures so far. Called under a lock;
	// keep it fast.
	Progress func(done, total, failures int)
}

// Failure is one inconsistent (boundary, evictP) trial.
type Failure struct {
	Boundary int64
	EvictP   float64
	Err      error
}

// SweepResult summarizes a sweep.
type SweepResult struct {
	BoundarySpace int64 // persist ops the workload spans (counting run)
	Boundaries    int   // distinct boundaries swept after stride/cap
	Runs          int   // trials executed
	Crashes       int   // trials whose armed crash actually fired
	Failures      []Failure
}

// imageSeed derives the deterministic RNG seed for a trial's crash image
// (which un-flushed lines survive) from the sweep coordinates, so a
// failure replays byte-for-byte from (Seed, Boundary, EvictP) alone.
func imageSeed(seed, boundary int64, evictP float64) int64 {
	h := uint64(seed)*0x9e3779b97f4a7c15 ^
		uint64(boundary)*0xbf58476d1ce4e5b9 ^
		uint64(int64(evictP*1024))*0x94d049bb133111eb
	h ^= h >> 31
	return int64(h &^ (1 << 63))
}

// Sweep enumerates the workload's persist-op boundary space and runs one
// deterministic crash trial per (boundary, evictP) pair. Oracle
// violations are collected in SweepResult.Failures; the returned error is
// reserved for harness problems (the workload itself not running).
func Sweep(cfg SweepConfig) (*SweepResult, error) {
	cfg.Ops = cfg.traceOps()
	if len(cfg.EvictPs) == 0 {
		cfg.EvictPs = []float64{0, 0.5, 1}
	}
	if cfg.Stride <= 0 {
		cfg.Stride = 1
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Fault != core.FaultNone && cfg.Kind != stack.Tinca {
		return nil, errors.New("crash: fault injection requires the Tinca stack")
	}
	if cfg.Checkpoint && cfg.Kind != stack.Tinca {
		return nil, errors.New("crash: checkpoint sweeps require the Tinca stack")
	}
	if cfg.Group.RawCommitters > 0 && cfg.Kind != stack.Tinca {
		return nil, errors.New("crash: raw committers require the Tinca stack")
	}
	if cfg.Rings > 1 && cfg.Kind != stack.Tinca {
		return nil, errors.New("crash: multi-ring sweeps require the Tinca stack")
	}
	if cfg.L3 && cfg.Kind != stack.Tinca {
		return nil, errors.New("crash: L3 tiering sweeps require the Tinca stack")
	}
	if cfg.Group.RawCommitters*rawBlocksPerTxn > sweepJournalBlocks {
		return nil, fmt.Errorf("crash: %d raw committers exceed the spare disk region", cfg.Group.RawCommitters)
	}

	if cfg.Group.Blocks > 0 && cfg.Group.FSWorkers <= 0 {
		cfg.Group.FSWorkers = 4
	}
	var trace []Op
	var traces [][]Op
	if cfg.Group.Blocks > 0 {
		traces = make([][]Op, cfg.Group.FSWorkers)
		for w := range traces {
			traces[w] = GenTraceNS(cfg.Seed+int64(w)*101, cfg.Ops, fmt.Sprintf("w%d", w))
		}
	} else {
		trace = GenTrace(cfg.Seed, cfg.Ops)
	}
	trial := func(b int64, p float64) trialSpec {
		sp := cfg.trial(trace, b, p)
		sp.traces = traces
		return sp
	}

	// Counting run: no armed crash, evictP 1 (every line persists — the
	// most forgiving image, so even a fault-injected workload completes).
	// Its persist-op total defines the boundary space. In group mode the
	// stream is scheduling-dependent, so the count is approximate:
	// boundaries past a particular trial's stream simply never fire and
	// are verified as completed runs.
	cout, err := runTrial(trial(-1, 1))
	if err != nil {
		return nil, fmt.Errorf("crash: counting run failed: %w", err)
	}

	res := &SweepResult{BoundarySpace: cout.boundarySpace}
	var boundaries []int64
	for b := int64(0); b < cout.boundarySpace; b += cfg.Stride {
		boundaries = append(boundaries, b)
	}
	if cfg.MaxBoundaries > 0 && len(boundaries) > cfg.MaxBoundaries {
		step := (len(boundaries) + cfg.MaxBoundaries - 1) / cfg.MaxBoundaries
		var sub []int64
		for i := 0; i < len(boundaries); i += step {
			sub = append(sub, boundaries[i])
		}
		boundaries = sub
	}
	res.Boundaries = len(boundaries)
	total := len(boundaries) * len(cfg.EvictPs)

	type job struct {
		b int64
		p float64
	}
	jobs := make(chan job)
	var mu sync.Mutex
	done := 0
	var wg sync.WaitGroup
	for i := 0; i < cfg.Workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for jb := range jobs {
				out, err := runTrial(trial(jb.b, jb.p))
				mu.Lock()
				done++
				res.Runs++
				if out.crashed {
					res.Crashes++
				}
				if err != nil {
					res.Failures = append(res.Failures, Failure{Boundary: jb.b, EvictP: jb.p, Err: err})
				}
				if cfg.Progress != nil {
					cfg.Progress(done, total, len(res.Failures))
				}
				mu.Unlock()
			}
		}()
	}
	for _, b := range boundaries {
		for _, p := range cfg.EvictPs {
			jobs <- job{b, p}
		}
	}
	close(jobs)
	wg.Wait()
	sort.Slice(res.Failures, func(i, j int) bool {
		if res.Failures[i].Boundary != res.Failures[j].Boundary {
			return res.Failures[i].Boundary < res.Failures[j].Boundary
		}
		return res.Failures[i].EvictP < res.Failures[j].EvictP
	})
	return res, nil
}

// ReplayLine renders the reproducer line for a sweep failure (serial
// sweeps only — group trials are scheduling-dependent).
func (cfg SweepConfig) ReplayLine(f Failure) string {
	return cfg.replaySpec(GenTrace(cfg.Seed, cfg.traceOps()), f.Boundary, f.EvictP).String()
}

// traceOps is the trace length with Ops' default applied.
func (cfg SweepConfig) traceOps() int {
	if cfg.Ops <= 0 {
		return 100
	}
	return cfg.Ops
}

// trial is the one SweepConfig→trialSpec conversion: every sweep option
// that shapes a trial's stack or persist stream is copied here, and the
// crash image seed is derived from (Seed, boundary, evictP). Sweep,
// Minimize, Replay and Blackbox all build their trials through it, so a
// reproducer or forensic re-run sees the persist stream the sweep saw.
func (cfg SweepConfig) trial(trace []Op, boundary int64, evictP float64) trialSpec {
	return trialSpec{
		kind:      cfg.Kind,
		trace:     trace,
		boundary:  boundary,
		evictP:    evictP,
		imageSeed: imageSeed(cfg.Seed, boundary, evictP),
		fault:     cfg.Fault,
		ckpt:      cfg.Checkpoint,
		rings:     cfg.Rings,
		l3:        cfg.L3,
		group:     cfg.Group,
	}
}

// replaySpec renders one serial trial of this sweep as a reproducer;
// ReplaySpec.config is its inverse.
func (cfg SweepConfig) replaySpec(trace []Op, boundary int64, evictP float64) ReplaySpec {
	return ReplaySpec{
		Kind:     cfg.Kind,
		Boundary: boundary,
		EvictP:   evictP,
		Fault:    cfg.Fault,
		Ckpt:     cfg.Checkpoint,
		Rings:    cfg.Rings,
		L3:       cfg.L3,
		Seed:     cfg.Seed,
		Trace:    trace,
	}
}

// ---- trial machinery ----------------------------------------------------

// trialSpec fully determines one trial (up to goroutine scheduling in
// group mode).
type trialSpec struct {
	kind      stack.Kind
	trace     []Op   // serial mode
	traces    [][]Op // group mode: one namespaced trace per FS worker
	boundary  int64  // persist-op boundary after mount; -1 = never crash
	evictP    float64
	imageSeed int64
	fault     core.Fault
	ckpt      bool // checkpoint writer on, firing at every commit point
	rings     int  // CommitRings (multi-ring layout) when > 1
	l3        bool // L3 object tier behind a small L2 disk
	group     GroupConfig
}

type trialOut struct {
	crashed  bool
	acked    int // serial mode only
	inflight *Op // serial mode only
	// boundarySpace is the persist-op count the workload spanned, valid
	// when the trial ran to completion (counting runs).
	boundarySpace int64
}

func runTrial(sp trialSpec) (trialOut, error) {
	if len(sp.traces) > 0 {
		return runGroupTrial(sp)
	}
	return runSerialTrial(sp)
}

func (sp trialSpec) stackConfig(hook func(uint64)) stack.Config {
	cfg := stack.Config{
		Kind:              sp.kind,
		NVMBytes:          sweepNVMBytes,
		FSBlocks:          sweepFSBlocks,
		JournalBlocks:     sweepJournalBlocks,
		GroupCommitBlocks: sp.group.Blocks,
	}
	if sp.kind == stack.Tinca {
		cfg.Fault = sp.fault
		cfg.SealHook = hook
		// Every Tinca trial flies with the recorder on: the sweep is the
		// standing proof that flight persists never induce a false positive
		// (they add crash boundaries but zero observable cost), and the
		// surviving ring feeds the blackbox cross-checks after the crash.
		cfg.FlightRecorder = true
		if sp.ckpt {
			cfg.CheckpointIntervalNS = 1
		}
		if sp.rings > 1 {
			cfg.CommitRings = sp.rings
		}
		if sp.l3 {
			// An L2 far smaller than the FS span, tiny objects and a
			// low dirty bound: every trial churns real destage, upload,
			// eviction and backpressure traffic through the tier before
			// the crash lands.
			cfg.L3 = true
			cfg.L3L2Blocks = 512
			cfg.L3ObjectBlocks = 8
			cfg.L3Prefetch = 2
			cfg.L3UploadWorkers = 2
			cfg.L3MaxDirty = 128
		}
	}
	return cfg
}

// flightPreCheck decodes the flight ring straight from the crash image —
// before Remount, so recovery's own events are not mixed into the
// pre-crash timeline — and checks the §13 window invariant: the surviving
// sequence numbers are contiguous up to MaxSeq with at most the one
// in-flight record missing. A torn interior or a duplicate means the
// recorder itself violated its persist ordering.
func flightPreCheck(mem *pmem.Device, lay core.Layout) (*flight.Blackbox, error) {
	if lay.FlightSlots == 0 {
		return nil, nil
	}
	bb := flight.Decode(mem, lay.FlightOff, lay.FlightSlots)
	if err := bb.CheckWindow(); err != nil {
		return bb, fmt.Errorf("flight window: %w", err)
	}
	return bb, nil
}

// flightPostCheck cross-checks the pre-crash flight record against the
// recovered cache. Commit-point records (EvSealPersist, EvSerialCommit)
// are emitted after the (last) Tail flip's persist completes, so any such
// record present in the crash image — flushed or evicted into it — proves
// the flip was durable first: the recovered Tail of the ring named by the
// record's Shard field must cover it. On the single-ring layout every
// commit record carries Shard 0 and the check degenerates to the global
// Tail comparison. When a SealHook observed seal sealedQ before the crash
// and the ring never wrapped (MinSeq == 1, so no record was overwritten),
// the fully-persisted record for that seal must also have survived.
func flightPostCheck(bb *flight.Blackbox, c *core.Cache, sealedQ uint64) error {
	if bb == nil {
		return nil
	}
	var maxGen uint64
	for _, r := range bb.Records {
		if r.Type == flight.EvSealPersist || r.Type == flight.EvSerialCommit {
			if r.Gen > maxGen {
				maxGen = r.Gen
			}
		}
	}
	_, tails := c.RingPointers()
	for ring, maxCommit := range bb.LastSealedHeads {
		if int(ring) >= len(tails) {
			return fmt.Errorf(
				"flight oracle: commit record names ring %d but the recovered layout has %d ring(s)",
				ring, len(tails))
		}
		if tails[ring] < maxCommit {
			return fmt.Errorf(
				"flight oracle: recorded commit point at ring %d position %d but recovered Tail is %d",
				ring, maxCommit, tails[ring])
		}
	}
	if sealedQ > 0 && bb.MinSeq == 1 && maxGen < sealedQ {
		return fmt.Errorf(
			"flight oracle: SealHook reported seal %d before the crash but the un-wrapped ring records no commit past gen %d",
			sealedQ, maxGen)
	}
	return nil
}

func checkStructure(s *stack.Stack) error {
	if err := s.FS.Check(); err != nil {
		return fmt.Errorf("fsck: %w", err)
	}
	if s.TCache != nil {
		if err := s.TCache.CheckInvariants(); err != nil {
			return fmt.Errorf("cache invariants: %w", err)
		}
	}
	return nil
}

// runSerialTrial executes one trace with per-op commits, crashes at the
// spec's boundary (if it fires), recovers, and applies the exact
// before/after oracle.
func runSerialTrial(sp trialSpec) (trialOut, error) {
	var out trialOut
	s, err := stack.New(sp.stackConfig(nil))
	if err != nil {
		return out, err
	}
	setupOps := s.Mem.PersistOps()

	model := NewModel()
	var inflight *Op
	var opErr error
	if sp.boundary >= 0 {
		s.Mem.ArmCrash(sp.boundary)
	}
	crashed, _ := pmem.CatchCrash(func() {
		for i := range sp.trace {
			o := sp.trace[i]
			inflight = &o
			err := Issue(s.FS, o)
			if o.WantErr {
				if err == nil {
					opErr = fmt.Errorf("op %d %v succeeded, want error", i, o)
					return
				}
			} else if err != nil {
				opErr = fmt.Errorf("op %d %v: %v", i, o, err)
				return
			}
			model.Apply(o)
			inflight = nil
			out.acked++
		}
	})
	if opErr != nil {
		return out, opErr
	}
	out.crashed = crashed
	if !crashed {
		s.Mem.DisarmCrash()
		inflight = nil
	}
	out.inflight = inflight
	out.boundarySpace = s.Mem.PersistOps() - setupOps

	var lay core.Layout
	if s.TCache != nil {
		lay = s.TCache.Layout()
	}
	s.Crash(sim.NewRand(sp.imageSeed), sp.evictP)
	bb, ferr := flightPreCheck(s.Mem, lay)
	if ferr != nil {
		return out, ferr
	}
	if err := s.Remount(); err != nil {
		return out, fmt.Errorf("remount: %w", err)
	}
	if err := checkStructure(s); err != nil {
		return out, err
	}
	if err := flightPostCheck(bb, s.TCache, 0); err != nil {
		return out, err
	}

	// The observed state must match the model either before or after the
	// in-flight operation.
	if err := Verify(s.FS, model); err == nil {
		return out, nil
	} else if inflight == nil {
		return out, fmt.Errorf("acked state diverged: %w", err)
	}
	after := model.Clone()
	after.Apply(*inflight)
	if err := Verify(s.FS, after); err != nil {
		errBefore := Verify(s.FS, model)
		return out, fmt.Errorf("state matches neither side of in-flight %v:\n  before: %v\n  after: %v",
			*inflight, errBefore, err)
	}
	return out, nil
}

// ---- group-commit trial -------------------------------------------------

// wstate is one FS worker's trace execution record.
type wstate struct {
	snaps    []Model // snaps[k]: shadow model after k acked ops
	commits  []int64 // commits[k-1]: backend GroupCommits seen after op k acked
	acked    int
	inflight *Op
	err      error
	crashed  bool
}

// rawState is one raw core.Txn committer's record.
type rawState struct {
	committed int       // last generation whose Commit returned
	cur       *core.Txn // in-flight transaction at the crash, if any
	curGen    int
	err       error
	crashed   bool
}

// runGroupTrial executes concurrent namespaced FS traces (plus optional
// raw core.Txn streams) under group commit, crashes at the boundary, and
// applies the batch-prefix oracle described in the package comment.
func runGroupTrial(sp trialSpec) (trialOut, error) {
	var out trialOut
	var sealedMax atomic.Uint64
	var hook func(uint64)
	if sp.kind == stack.Tinca && sp.group.RawCommitters > 0 {
		hook = func(seq uint64) {
			for {
				cur := sealedMax.Load()
				if seq <= cur || sealedMax.CompareAndSwap(cur, seq) {
					return
				}
			}
		}
	}
	s, err := stack.New(sp.stackConfig(hook))
	if err != nil {
		return out, err
	}
	setupOps := s.Mem.PersistOps()
	if sp.boundary >= 0 {
		s.Mem.ArmCrash(sp.boundary)
	}

	// stop tells every stream a crash fired somewhere; the FS itself also
	// poisons further ops, but raw committers bypass the FS.
	var stop atomic.Bool
	ws := make([]*wstate, len(sp.traces))
	var wg sync.WaitGroup
	for w := range sp.traces {
		st := &wstate{snaps: []Model{NewModel()}}
		ws[w] = st
		trace := sp.traces[w]
		wg.Add(1)
		go func() {
			defer wg.Done()
			m := NewModel()
			crashed, _ := pmem.CatchCrash(func() {
				for i := range trace {
					if stop.Load() {
						return
					}
					o := trace[i]
					st.inflight = &o
					err := Issue(s.FS, o)
					if o.WantErr {
						if err == nil {
							st.err = fmt.Errorf("op %d %v succeeded, want error", i, o)
							return
						}
					} else if err != nil {
						st.err = fmt.Errorf("op %d %v: %v", i, o, err)
						return
					}
					m.Apply(o)
					st.snaps = append(st.snaps, m.Clone())
					st.commits = append(st.commits, s.FS.Stats().GroupCommits)
					st.inflight = nil
					st.acked++
				}
			})
			if crashed {
				st.crashed = true
				stop.Store(true)
			}
		}()
	}

	rs := make([]*rawState, sp.group.RawCommitters)
	var fsDone atomic.Bool
	var rwg sync.WaitGroup
	for j := range rs {
		r := &rawState{}
		rs[j] = r
		j := j
		rwg.Add(1)
		go func() {
			defer rwg.Done()
			crashed, _ := pmem.CatchCrash(func() {
				for gen := 1; !stop.Load() && !fsDone.Load(); gen++ {
					t := s.TCache.Begin()
					for b := 0; b < rawBlocksPerTxn; b++ {
						t.Write(rawBlockNo(j, b), rawBlock(j, gen, b))
					}
					r.cur, r.curGen = t, gen
					if err := t.Commit(); err != nil {
						r.err = fmt.Errorf("gen %d commit: %v", gen, err)
						return
					}
					r.committed = gen
					r.cur = nil
				}
			})
			if crashed {
				r.crashed = true
				stop.Store(true)
			}
		}()
	}
	wg.Wait()
	fsDone.Store(true)
	rwg.Wait()

	for w, st := range ws {
		if st.err != nil {
			return out, fmt.Errorf("worker %d: %w", w, st.err)
		}
		if st.crashed {
			out.crashed = true
		}
	}
	for j, r := range rs {
		if r.err != nil {
			return out, fmt.Errorf("raw committer %d: %w", j, r.err)
		}
		if r.crashed {
			out.crashed = true
		}
	}
	if sp.boundary >= 0 && !out.crashed {
		s.Mem.DisarmCrash()
	}
	out.boundarySpace = s.Mem.PersistOps() - setupOps
	sealedQ := sealedMax.Load()

	var lay core.Layout
	if s.TCache != nil {
		lay = s.TCache.Layout()
	}
	s.Crash(sim.NewRand(sp.imageSeed), sp.evictP)
	bb, ferr := flightPreCheck(s.Mem, lay)
	if ferr != nil {
		return out, ferr
	}
	if err := s.Remount(); err != nil {
		return out, fmt.Errorf("remount: %w", err)
	}
	if err := checkStructure(s); err != nil {
		return out, err
	}
	if err := flightPostCheck(bb, s.TCache, sealedQ); err != nil {
		return out, err
	}

	// Every recovered file must belong to exactly one worker's namespace.
	names, err := s.FS.ReadDir("/")
	if err != nil {
		return out, err
	}
	for _, n := range names {
		info, err := s.FS.Stat("/" + n)
		if err != nil {
			return out, fmt.Errorf("stat /%s: %w", n, err)
		}
		if info.IsDir {
			continue
		}
		owned := false
		for w := range ws {
			if strings.HasPrefix(n, fmt.Sprintf("w%d-", w)) {
				owned = true
				break
			}
		}
		if !owned {
			return out, fmt.Errorf("recovered file /%s belongs to no worker namespace", n)
		}
	}

	// Per-worker batch-prefix oracle.
	for w, st := range ws {
		prefix := fmt.Sprintf("/w%d-", w)
		floor := prefixFloor(st.commits)
		matched := -1
		var firstErr error
		for p := st.acked; p >= floor; p-- {
			if err := VerifyPrefix(s.FS, st.snaps[p], prefix); err == nil {
				matched = p
				break
			} else if firstErr == nil {
				firstErr = err
			}
		}
		if matched < 0 && st.inflight != nil {
			after := st.snaps[st.acked].Clone()
			after.Apply(*st.inflight)
			if err := VerifyPrefix(s.FS, after, prefix); err == nil {
				matched = st.acked + 1
			}
		}
		if matched < 0 {
			return out, fmt.Errorf(
				"worker %d: recovered namespace matches no acked prefix in [%d,%d] (acked %d, inflight %v): %v",
				w, floor, st.acked, st.acked, st.inflight, firstErr)
		}
	}

	// Raw committer oracle: block-level batch atomicity + seal durability.
	if len(rs) > 0 {
		buf := make([]byte, core.BlockSize)
		for j, r := range rs {
			gen := -1
			for b := 0; b < rawBlocksPerTxn; b++ {
				if err := s.TCache.Read(rawBlockNo(j, b), buf); err != nil {
					return out, fmt.Errorf("raw committer %d block %d: %w", j, b, err)
				}
				g, ok := rawGen(j, b, buf)
				if !ok {
					return out, fmt.Errorf("raw committer %d block %d: torn content (not any generation)", j, b)
				}
				if b == 0 {
					gen = g
				} else if g != gen {
					return out, fmt.Errorf(
						"raw committer %d: txn atomicity violated — block 0 at gen %d, block %d at gen %d",
						j, gen, b, g)
				}
			}
			if gen < r.committed {
				return out, fmt.Errorf(
					"raw committer %d: durability violated — gen %d acked, recovered gen %d",
					j, r.committed, gen)
			}
			inflightGen := -1
			var inflightSeal uint64
			if r.cur != nil {
				inflightGen = r.curGen
				inflightSeal = r.cur.SealSeq()
			}
			if gen > r.committed && gen != inflightGen {
				return out, fmt.Errorf(
					"raw committer %d: recovered gen %d, but acked %d and in-flight %d",
					j, gen, r.committed, inflightGen)
			}
			if r.cur != nil {
				switch {
				case sp.rings <= 1 && inflightSeal != 0 && inflightSeal <= sealedQ && gen != inflightGen:
					// The hook reported this seal's commit point before
					// the crash, so the transaction must be durable.
					return out, fmt.Errorf(
						"raw committer %d: sealed txn lost — seal %d ≤ reported max %d but recovered gen %d, want %d",
						j, inflightSeal, sealedQ, gen, inflightGen)
				case inflightSeal == 0 && gen != r.committed:
					// Never assigned a seal: no persist of it can have
					// started, so it must be wholly absent.
					return out, fmt.Errorf(
						"raw committer %d: unsealed txn visible — recovered gen %d, want %d",
						j, gen, r.committed)
				}
				// inflightSeal > sealedQ: the crash may have hit between
				// the Tail persist and the hook — either outcome is legal.
				// At rings > 1 the seal-durability case is skipped entirely:
				// generations commit out of order across rings, so a later
				// generation's hook report does not imply this seal's commit
				// point was reached. flightPostCheck still enforces per-ring
				// commit-record durability there.
			}
		}
	}
	return out, nil
}

// prefixFloor returns the largest k such that ops 1..k are provably
// durable: op k counts if some later observation saw a strictly larger
// backend-commit count, because that commit completed after op k was
// staged and a group commit always covers everything staged before it.
func prefixFloor(commits []int64) int {
	floor := 0
	var maxLater int64 = -1
	for k := len(commits); k >= 1; k-- {
		if maxLater > commits[k-1] {
			floor = k
			break
		}
		if commits[k-1] > maxLater {
			maxLater = commits[k-1]
		}
	}
	return floor
}

// rawBlockNo maps (committer, block-in-txn) into the spare disk region
// past the FS area.
func rawBlockNo(j, b int) uint64 {
	return uint64(sweepFSBlocks + j*rawBlocksPerTxn + b)
}

// rawBlock builds the deterministic content of committer j's block b at
// generation gen: the generation is readable from the header and every
// byte is checkable, so any mix of generations within a block or across a
// txn's blocks is detected.
func rawBlock(j, gen, b int) []byte {
	d := make([]byte, core.BlockSize)
	binary.LittleEndian.PutUint64(d[0:8], uint64(gen))
	d[8] = byte(j)
	d[9] = byte(b)
	fill := byte(gen) ^ byte(j)<<4 ^ byte(b)
	for i := 10; i < len(d); i++ {
		d[i] = fill
	}
	return d
}

// rawGen decodes a recovered raw block: (0, true) for never-written
// all-zero blocks, (gen, true) for an intact generation, ok=false for
// torn content.
func rawGen(j, b int, d []byte) (int, bool) {
	gen := binary.LittleEndian.Uint64(d[0:8])
	if gen == 0 {
		for _, x := range d {
			if x != 0 {
				return 0, false
			}
		}
		return 0, true
	}
	if gen > 1<<31 {
		return 0, false
	}
	if !bytes.Equal(d, rawBlock(j, int(gen), b)) {
		return 0, false
	}
	return int(gen), true
}
