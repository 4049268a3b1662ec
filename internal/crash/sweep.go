// Exhaustive crash-point sweeps (DESIGN.md §5). Where Trial samples one
// random crash point, Sweep enumerates *every* NVM persist-op boundary a
// workload spans — pmem.Device counts Store/Store8/CLFlush/SFence
// as the boundary space — and runs one deterministic trial per
// (boundary, evictP) pair, so a persist-ordering bug cannot hide between
// random samples.
//
// Every trial — Sweep's, Trial's, Replay's, Minimize's, Blackbox's — runs
// in two phases. execute builds the stack, arms the crash, runs W
// namespaced FS workers plus R raw core.Txn committers, takes the crash
// image and decodes the flight ring before remount; verify remounts and
// judges. A serial sweep (GroupCommitBlocks = 0) is the case W = 1, R = 0,
// its one trace owning the root namespace.
//
// One oracle: each worker's recovered namespace must equal one of its
// acknowledged prefixes — at least its proven-durable floor, at most its
// full trace plus the in-flight op — and never a hybrid inside a batch.
// With per-op commits each op's backend commit returns before its ack, so
// the floor is the acked count and the oracle is exact: the model before
// or after the one in-flight op. Under group commit ops from several
// workers coalesce into batches, so the floor is derived from
// backend-commit counter observations (prefixFloor). Raw core.Txn
// committers additionally pin down batch atomicity at the block layer:
// each transaction's block set must recover from a single generation,
// and every seal the commit hook reported before the crash must be
// durable.
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
	"tinca/internal/fs"
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

// ErrHarness marks a trial that could not run as written — its trace ran
// the trial file system out of space before any crash — as opposed to a
// crash inconsistency. Replay reports it wrapped; errors.Is finds it.
var ErrHarness = errors.New("crash: harness error")

// GroupConfig runs trials under group commit with concurrent streams.
type GroupConfig struct {
	// Blocks is the FS GroupCommitBlocks threshold; 0 runs one FS worker
	// with per-op commits.
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
	if len(cfg.EvictPs) == 0 {
		cfg.EvictPs = []float64{0, 0.5, 1}
	}
	if cfg.Stride <= 0 {
		cfg.Stride = 1
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	traces := cfg.traces()

	// Counting run: no armed crash, evictP 1 (every line persists — the
	// most forgiving image, so even a fault-injected workload completes).
	// Its persist-op total defines the boundary space. In group mode the
	// stream is scheduling-dependent, so the count is approximate:
	// boundaries past a particular trial's stream simply never fire and
	// are verified as completed runs.
	cout, err := runTrial(cfg.trial(traces, -1, 1))
	if err != nil {
		return nil, fmt.Errorf("crash: counting run failed: %w", err)
	}

	res := &SweepResult{BoundarySpace: cout.boundarySpace}
	// MaxBoundaries subsamples the strided set evenly by widening the
	// stride.
	stride := cfg.Stride
	if n, limit := (cout.boundarySpace+stride-1)/stride, int64(cfg.MaxBoundaries); limit > 0 && n > limit {
		stride *= (n + limit - 1) / limit
	}
	var boundaries []int64
	for b := int64(0); b < cout.boundarySpace; b += stride {
		boundaries = append(boundaries, b)
	}
	res.Boundaries = len(boundaries)
	total := len(boundaries) * len(cfg.EvictPs)

	type job struct {
		b int64
		p float64
	}
	jobs := make(chan job)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < cfg.Workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for jb := range jobs {
				ex, err := runTrial(cfg.trial(traces, jb.b, jb.p))
				mu.Lock()
				res.Runs++
				if ex.crashed {
					res.Crashes++
				}
				if err != nil {
					res.Failures = append(res.Failures, Failure{Boundary: jb.b, EvictP: jb.p, Err: err})
				}
				if cfg.Progress != nil {
					cfg.Progress(res.Runs, total, len(res.Failures))
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
	r := ReplaySpec{Boundary: f.Boundary, EvictP: f.EvictP, Trace: GenTrace(cfg.Seed, cfg.traceOps())}
	bindOptions(&r, &cfg, true)
	return r.String()
}

// traceOps is the trace length with Ops' default applied.
func (cfg SweepConfig) traceOps() int {
	if cfg.Ops <= 0 {
		return 100
	}
	return cfg.Ops
}

// traces generates the op streams of cfg's trials: one root-namespace
// trace for a serial sweep, one "/w<i>-" trace per FS worker in group
// mode.
func (cfg SweepConfig) traces() [][]Op {
	if cfg.Group.Blocks == 0 {
		return [][]Op{GenTrace(cfg.Seed, cfg.traceOps())}
	}
	n := cfg.Group.FSWorkers
	if n <= 0 {
		n = 4
	}
	traces := make([][]Op, n)
	for w := range traces {
		traces[w] = GenTraceNS(cfg.Seed+int64(w)*101, cfg.traceOps(), fmt.Sprintf("w%d", w))
	}
	return traces
}

// validate rejects a configuration no trial can run: a stack knob the
// kind never reads (stack.Config.Validate), and raw committers without
// the Tinca cache or beyond the spare disk region.
func (cfg SweepConfig) validate() error {
	if cfg.Group.RawCommitters > 0 && cfg.Kind != stack.Tinca {
		return errors.New("crash: raw committers require the Tinca stack")
	}
	if cfg.Group.RawCommitters*rawBlocksPerTxn > sweepJournalBlocks {
		return fmt.Errorf("crash: %d raw committers exceed the spare disk region", cfg.Group.RawCommitters)
	}
	return cfg.stackConfig(nil).Validate()
}

// stackConfig is the stack every trial of cfg runs on. Each sweep option
// is forwarded whatever the kind, so stack.Config.Validate rejects one
// the kind never reads.
func (cfg SweepConfig) stackConfig(hook func(uint64)) stack.Config {
	sc := stack.Config{
		Kind:              cfg.Kind,
		NVMBytes:          sweepNVMBytes,
		FSBlocks:          sweepFSBlocks,
		JournalBlocks:     sweepJournalBlocks,
		GroupCommitBlocks: cfg.Group.Blocks,
		// Every Tinca trial flies with the recorder on, a harness choice
		// and not a sweep option: the sweep is the standing proof that
		// flight persists never induce a false positive (they add crash
		// boundaries but zero observable cost), and the surviving ring
		// feeds the blackbox cross-checks after the crash.
		Options: core.Options{Fault: cfg.Fault, SealHook: hook, FlightRecorder: cfg.Kind == stack.Tinca},
	}
	if cfg.Checkpoint {
		sc.CheckpointIntervalNS = 1
	}
	if cfg.Rings > 1 {
		sc.CommitRings = cfg.Rings
	}
	return sc
}

// ---- trial machinery ----------------------------------------------------

// trialSpec fully determines one trial (up to goroutine scheduling in
// group mode).
type trialSpec struct {
	cfg       SweepConfig
	traces    [][]Op // one trace per FS worker
	boundary  int64  // persist-op boundary after mount; -1 = never crash
	evictP    float64
	imageSeed int64
}

// trial is one trial of cfg over traces; the crash image seed is derived
// from (Seed, boundary, evictP), so a reproducer re-runs the sweep's
// persist stream and image.
func (cfg SweepConfig) trial(traces [][]Op, boundary int64, evictP float64) trialSpec {
	return trialSpec{cfg: cfg, traces: traces, boundary: boundary, evictP: evictP,
		imageSeed: imageSeed(cfg.Seed, boundary, evictP)}
}

// wstate is one FS worker's trace execution record.
type wstate struct {
	ns       string  // path prefix the worker owns: "/" serial, "/w<i>-" group
	model    Model   // shadow model after the acked ops
	snaps    []Model // group mode: snaps[k] is the model after k < acked ops
	commits  []int64 // group mode: commits[k-1] is GroupCommits seen after op k acked
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

// execution is a trial after its execute phase: the crashed stack, what
// every stream observed before the power failure, and the flight ring
// decoded from the crash image.
type execution struct {
	sp            trialSpec
	s             *stack.Stack
	lay           core.Layout
	ws            []*wstate
	rs            []*rawState
	crashed       bool
	boundarySpace int64  // persist ops the workload spanned (complete runs)
	sealedQ       uint64 // largest seal the SealHook reported before the crash
	bb            *flight.Blackbox
	windowErr     error // the §13 window check of bb
	remountErr    error // set by verify
}

// runTrial executes one trial and verifies it. The returned execution is
// never nil; its workers are missing only when the stack did not build.
func runTrial(sp trialSpec) (*execution, error) {
	ex, err := execute(sp)
	if err == nil {
		err = ex.verify()
	}
	return ex, err
}

// result reports the first FS worker's progress — the whole trace of a
// serial trial.
func (ex *execution) result() Result {
	res := Result{Crashed: ex.crashed}
	if len(ex.ws) > 0 {
		res.OpsAcked = ex.ws[0].acked
		if o := ex.ws[0].inflight; o != nil {
			res.Inflight = o.String()
		}
	}
	return res
}

// execute builds the stack, arms the crash at the spec's boundary, runs
// every FS worker and raw committer until the trace ends or the crash
// fires, takes the crash image and decodes its flight ring. The returned
// error is an op the file system got wrong before any crash, or an
// ErrHarness when the trace ran it out of space.
func execute(sp trialSpec) (*execution, error) {
	ex := &execution{sp: sp}
	var sealedMax atomic.Uint64
	var hook func(uint64)
	if sp.cfg.Group.RawCommitters > 0 {
		hook = func(seq uint64) {
			for {
				cur := sealedMax.Load()
				if seq <= cur || sealedMax.CompareAndSwap(cur, seq) {
					return
				}
			}
		}
	}
	s, err := stack.New(sp.cfg.stackConfig(hook))
	if err != nil {
		return ex, err
	}
	ex.s = s
	setupOps := s.Mem.PersistOps()
	if sp.boundary >= 0 {
		s.Mem.ArmCrash(sp.boundary)
	}

	// stop tells every stream a crash fired somewhere; the FS itself also
	// poisons further ops, but raw committers bypass the FS.
	var stop atomic.Bool
	group := sp.cfg.Group.Blocks > 0
	var wg sync.WaitGroup
	for w, trace := range sp.traces {
		st := &wstate{ns: "/", model: NewModel()}
		if group {
			st.ns = fmt.Sprintf("/w%d-", w)
		}
		ex.ws = append(ex.ws, st)
		wg.Add(1)
		go func() {
			defer wg.Done()
			st.crashed, _ = pmem.CatchCrash(func() {
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
					} else if errors.Is(err, fs.ErrNoSpace) {
						st.err = fmt.Errorf("%w: op %d %v: %w", ErrHarness, i, o, err)
						return
					} else if err != nil {
						st.err = fmt.Errorf("op %d %v: %v", i, o, err)
						return
					}
					if group {
						st.snaps = append(st.snaps, st.model.Clone())
						st.commits = append(st.commits, s.FS.Stats().GroupCommits)
					}
					st.model.Apply(o)
					st.inflight = nil
					st.acked++
				}
			})
			if st.crashed {
				stop.Store(true)
			}
		}()
	}

	var fsDone atomic.Bool
	var rwg sync.WaitGroup
	for j := 0; j < sp.cfg.Group.RawCommitters; j++ {
		r := &rawState{}
		ex.rs = append(ex.rs, r)
		rwg.Add(1)
		go func() {
			defer rwg.Done()
			r.crashed, _ = pmem.CatchCrash(func() {
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
			if r.crashed {
				stop.Store(true)
			}
		}()
	}
	wg.Wait()
	fsDone.Store(true)
	rwg.Wait()

	for w, st := range ex.ws {
		if st.err != nil {
			return ex, st.blame(w, st.err)
		}
		ex.crashed = ex.crashed || st.crashed
	}
	for j, r := range ex.rs {
		if r.err != nil {
			return ex, fmt.Errorf("raw committer %d: %w", j, r.err)
		}
		ex.crashed = ex.crashed || r.crashed
	}
	if !ex.crashed {
		s.Mem.DisarmCrash()
	}
	ex.boundarySpace = s.Mem.PersistOps() - setupOps
	ex.sealedQ = sealedMax.Load()

	if s.TCache != nil {
		ex.lay = s.TCache.Layout()
	}
	s.Crash(sim.NewRand(sp.imageSeed), sp.evictP)
	// Decode before Remount, so recovery's own events are not mixed into
	// the pre-crash timeline, and check the §13 window invariant: the
	// surviving sequence numbers are contiguous up to MaxSeq with at most
	// the one in-flight record missing. A torn interior or a duplicate
	// means the recorder itself violated its persist ordering.
	if ex.lay.FlightSlots > 0 {
		ex.bb = ex.decodeFlight()
		if err := ex.bb.CheckWindow(); err != nil {
			ex.windowErr = fmt.Errorf("flight window: %w", err)
		}
	}
	return ex, nil
}

// decodeFlight decodes the flight ring from the device as it is now.
func (ex *execution) decodeFlight() *flight.Blackbox {
	return flight.Decode(ex.s.Mem, ex.lay.FlightOff, ex.lay.FlightSlots)
}

// blame attributes a worker's error to it; a serial trial's one worker
// goes unnamed.
func (st *wstate) blame(w int, err error) error {
	if st.ns == "/" {
		return err
	}
	return fmt.Errorf("worker %d: %w", w, err)
}

// verify remounts the crashed stack and applies the oracle of the
// package comment: fsck and cache invariants, the flight cross-check,
// namespace ownership, each worker's prefix oracle and the raw-committer
// oracle.
func (ex *execution) verify() error {
	s := ex.s
	ex.remountErr = s.Remount()
	if ex.windowErr != nil {
		return ex.windowErr
	}
	if ex.remountErr != nil {
		return fmt.Errorf("remount: %w", ex.remountErr)
	}
	if err := checkStructure(s); err != nil {
		return err
	}
	if err := flightPostCheck(ex.bb, s.TCache, ex.sealedQ); err != nil {
		return err
	}

	// Every recovered file must belong to exactly one worker's namespace.
	names, err := s.FS.ReadDir("/")
	if err != nil {
		return err
	}
	for _, n := range names {
		p := "/" + n
		owned := false
		for _, st := range ex.ws {
			owned = owned || strings.HasPrefix(p, st.ns)
		}
		if owned {
			continue
		}
		info, err := s.FS.Stat(p)
		if err != nil {
			return fmt.Errorf("stat %s: %w", p, err)
		}
		if !info.IsDir {
			return fmt.Errorf("recovered file %s belongs to no worker namespace", p)
		}
	}

	for w, st := range ex.ws {
		// With per-op commits each op's backend commit returned before
		// its ack, so every acked op is durable.
		floor := st.acked
		if ex.sp.cfg.Group.Blocks > 0 {
			floor = prefixFloor(st.commits)
		}
		if err := st.check(s.FS, floor); err != nil {
			return st.blame(w, err)
		}
	}
	return ex.checkRaw()
}

// check is the prefix oracle: the worker's recovered namespace must equal
// its model after p acked ops for some p in [floor, acked], or after all
// acked ops plus the one in flight.
func (st *wstate) check(f *fs.FS, floor int) error {
	var before error
	for p := st.acked; p >= floor; p-- {
		m := st.model
		if p < st.acked {
			m = st.snaps[p]
		}
		if err := VerifyPrefix(f, m, st.ns); err == nil {
			return nil
		} else if before == nil {
			before = err
		}
	}
	span := ""
	if floor < st.acked {
		span = fmt.Sprintf(" (nor any acked prefix down to %d)", floor)
	}
	if st.inflight == nil {
		return fmt.Errorf("acked state%s diverged: %w", span, before)
	}
	after := st.model.Clone()
	after.Apply(*st.inflight)
	err := VerifyPrefix(f, after, st.ns)
	if err == nil {
		return nil
	}
	return fmt.Errorf("state matches neither side of in-flight %v%s:\n  before: %v\n  after: %v",
		*st.inflight, span, before, err)
}

// checkRaw is the raw committer oracle: block-level batch atomicity and
// seal durability.
func (ex *execution) checkRaw() error {
	buf := make([]byte, core.BlockSize)
	for j, r := range ex.rs {
		gen := -1
		for b := 0; b < rawBlocksPerTxn; b++ {
			if err := ex.s.TCache.Read(rawBlockNo(j, b), buf); err != nil {
				return fmt.Errorf("raw committer %d block %d: %w", j, b, err)
			}
			g, ok := rawGen(j, b, buf)
			if !ok {
				return fmt.Errorf("raw committer %d block %d: torn content (not any generation)", j, b)
			}
			if b == 0 {
				gen = g
			} else if g != gen {
				return fmt.Errorf(
					"raw committer %d: txn atomicity violated — block 0 at gen %d, block %d at gen %d",
					j, gen, b, g)
			}
		}
		if gen < r.committed {
			return fmt.Errorf(
				"raw committer %d: durability violated — gen %d acked, recovered gen %d",
				j, r.committed, gen)
		}
		inflightGen, inflightSeal := -1, uint64(0)
		if r.cur != nil {
			inflightGen, inflightSeal = r.curGen, r.cur.SealSeq()
		}
		if gen > r.committed && gen != inflightGen {
			return fmt.Errorf(
				"raw committer %d: recovered gen %d, but acked %d and in-flight %d",
				j, gen, r.committed, inflightGen)
		}
		if r.cur != nil {
			switch {
			case ex.sp.cfg.Rings <= 1 && inflightSeal != 0 && inflightSeal <= ex.sealedQ && gen != inflightGen:
				// The hook reported this seal's commit point before
				// the crash, so the transaction must be durable.
				return fmt.Errorf(
					"raw committer %d: sealed txn lost — seal %d ≤ reported max %d but recovered gen %d, want %d",
					j, inflightSeal, ex.sealedQ, gen, inflightGen)
			case inflightSeal == 0 && gen != r.committed:
				// Never assigned a seal: no persist of it can have
				// started, so it must be wholly absent.
				return fmt.Errorf(
					"raw committer %d: unsealed txn visible — recovered gen %d, want %d",
					j, gen, r.committed)
			}
			// inflightSeal > sealedQ: the crash may have hit between the
			// Tail persist and the hook, so either outcome is legal. At
			// rings > 1 generations commit out of order across rings, so
			// the hook proves nothing about this seal; flightPostCheck
			// enforces per-ring commit-record durability there.
		}
	}
	return nil
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
