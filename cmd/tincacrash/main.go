// Command tincacrash is the recoverability torture tool of the paper's
// Section 5.1 ("we set two scenarios of system failure ... each time Tinca
// can recover and crash consistency of the system is never impaired").
//
// Three modes:
//
// Random trials (default): each trial runs a random op trace against a
// fresh stack, injects a power failure at a random NVM-operation boundary
// (the crash image keeps a random subset of un-flushed cache lines, the
// adversarial model), remounts, and verifies structural invariants, a
// full fsck walk, and the durability/atomicity oracle of DESIGN.md §5.
//
//	tincacrash -trials 200 -seed 7 -evictp 0.5
//
// Exhaustive sweep (-sweep): counts every persist op the trace spans and
// crashes one deterministic trial at *each* boundary, across an eviction
// probability grid — no boundary left unsampled. With -group-blocks > 0
// the sweep runs concurrent committers under group commit, and the same
// prefix oracle derives each worker's durability floor from the commits
// it observed. On failure, the first failing trial is shrunk to a
// minimal reproducer line.
//
//	tincacrash -sweep -kind tinca -ops 200
//	tincacrash -sweep -kind tinca -ops 200 -checkpoint   # checkpoint writer at every commit point
//	tincacrash -sweep -kind tinca -ops 200 -rings 16     # multi-ring commit layout
//	tincacrash -sweep -kind classic -ops 100 -stride 3
//	tincacrash -sweep -group-blocks 4 -fs-workers 4 -committers 2 -max-boundaries 200
//	tincacrash -sweep -fault skip-data-flush -evictps 0   # harness self-test: must fail
//
// Replay (-replay): re-runs the trial a reproducer line describes. A line
// the stack kind cannot run (a Tinca-only option on a Classic kind), a
// trace that writes more than the trial file system holds, and a trace
// that runs it out of space before any crash are harness errors, exit
// status 2.
//
//	tincacrash -replay 'kind=tinca boundary=137 evictp=0 fault=none seed=5 trace=c:/f0001|...'
//
// Blackbox (-blackbox): one deterministic Tinca trial with the NVM flight
// recorder on; crashes at -boundary (default: midway), prints the
// forensic report decoded from the crash image (last sealed generation,
// txns in flight, last-N event timeline), then remounts, applies the
// sweep's oracle and prints the §4.5 recovery breakdown.
//
//	tincacrash -blackbox -seed 7 -ops 200 -evictp 0.5
//	tincacrash -blackbox -boundary 5000
//
// Serial sweeps additionally accept -blackbox-out DIR: on failure, a
// blackbox report for each failing trial (up to 5) is written into DIR
// for offline forensics (CI uploads them as artifacts).
//
// Exit status is 1 if any trial finds an inconsistency, 2 on a harness
// error (bad flags, a configuration the stack refuses, a trace that does
// not fit the trial file system).
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"tinca/internal/crash"
	"tinca/internal/sim"
	"tinca/internal/stack"
)

func main() {
	var (
		sweep    = flag.Bool("sweep", false, "exhaustive boundary sweep instead of random trials")
		replay   = flag.String("replay", "", "replay a failure reproducer line and exit")
		blackbox = flag.Bool("blackbox", false, "crash one flight-recorded trial and print the forensic report")
		boundary = flag.Int64("boundary", -1, "persist-op crash boundary for -blackbox (-1 = midway)")
		bbOut    = flag.String("blackbox-out", "", "directory for blackbox reports of sweep failures (serial sweeps)")

		kindF   = flag.String("kind", "tinca", "stack kind: tinca, classic, classic-nojournal")
		seed    = flag.Int64("seed", 1, "random seed")
		ops     = flag.Int("ops", 200, "ops per trace (per worker in group mode)")
		evictPs = flag.String("evictps", "0,0.5,1", "comma-separated eviction probabilities (sweep mode)")
		stride  = flag.Int64("stride", 1, "sweep every Nth boundary")
		maxB    = flag.Int("max-boundaries", 0, "cap on boundaries swept, evenly subsampled (0 = exhaustive)")
		workers = flag.Int("workers", 0, "parallel trial runners (0 = GOMAXPROCS)")
		faultF  = flag.String("fault", "none", "injected protocol fault: none, skip-data-flush (harness self-test)")
		ckpt    = flag.Bool("checkpoint", false, "run the checkpoint writer at every commit point (sweep mode, tinca only)")
		rings   = flag.Int("rings", 0, "CommitRings: split the NVM log into N per-shard rings (sweep mode, tinca only; 0 = single ring)")

		groupBlocks = flag.Int("group-blocks", 0, "FS group-commit threshold; > 0 runs concurrent FS workers under group commit")
		fsWorkers   = flag.Int("fs-workers", 4, "concurrent FS op streams (group mode)")
		committers  = flag.Int("committers", 2, "raw block-txn committers (group mode, tinca only)")
		minimize    = flag.Bool("minimize", true, "shrink the first failure to a minimal reproducer (serial sweeps)")

		trials = flag.Int("trials", 100, "random crash/recover trials (default mode)")
		evictP = flag.Float64("evictp", -1, "eviction probability for random trials (-1 = random per trial)")

		verbose = flag.Bool("v", false, "log each trial / every progress tick")
	)
	flag.Parse()

	switch {
	case *replay != "":
		os.Exit(runReplay(*replay))
	case *blackbox:
		p := *evictP
		if p < 0 {
			p = 0.5
		}
		os.Exit(runBlackbox(*seed, *ops, *boundary, p))
	case *sweep:
		os.Exit(runSweep(sweepArgs{
			kind: *kindF, seed: *seed, ops: *ops, evictPs: *evictPs,
			stride: *stride, maxB: *maxB, workers: *workers, fault: *faultF, ckpt: *ckpt, rings: *rings,
			groupBlocks: *groupBlocks, fsWorkers: *fsWorkers, committers: *committers,
			minimize: *minimize, verbose: *verbose, bbOut: *bbOut,
		}))
	default:
		os.Exit(runRandomTrials(*kindF, *trials, *seed, *ops, *evictP, *verbose))
	}
}

func fatalf(format string, args ...interface{}) int {
	fmt.Fprintf(os.Stderr, "tincacrash: "+format+"\n", args...)
	return 2
}

func runReplay(line string) int {
	spec, err := crash.ParseReplaySpec(line)
	if err != nil {
		return fatalf("%v", err)
	}
	res, err := crash.Replay(spec)
	if errors.Is(err, crash.ErrHarness) {
		return fatalf("replay: %v", err)
	}
	if err != nil {
		fmt.Printf("tincacrash: replay: crashed=%v acked=%d inflight=%q\n", res.Crashed, res.OpsAcked, res.Inflight)
		fmt.Printf("tincacrash: INCONSISTENCY reproduced: %v\n", err)
		return 1
	}
	fmt.Printf("tincacrash: replay consistent (crashed=%v acked=%d)\n", res.Crashed, res.OpsAcked)
	return 0
}

type sweepArgs struct {
	kind, evictPs, fault               string
	seed, stride                       int64
	ops, maxB, workers, rings          int
	groupBlocks, fsWorkers, committers int
	minimize, verbose, ckpt            bool
	bbOut                              string
}

// runBlackbox crashes one flight-recorded trial and prints the forensic
// report plus the recovery breakdown.
func runBlackbox(seed int64, ops int, boundary int64, evictP float64) int {
	res, err := crash.Blackbox(crash.SweepConfig{Kind: stack.Tinca, Seed: seed, Ops: ops}, boundary, evictP)
	if err != nil {
		return fatalf("%v", err)
	}
	if res.BoundarySpace > 0 {
		fmt.Printf("tincacrash: blackbox: workload spans %d persist ops; crash armed at boundary %d (evictp=%v)\n",
			res.BoundarySpace, res.Boundary, evictP)
	} else {
		fmt.Printf("tincacrash: blackbox: crash armed at boundary %d (evictp=%v)\n", res.Boundary, evictP)
	}
	if !res.Crashed {
		fmt.Println("tincacrash: blackbox: boundary past the workload; no crash fired (clean image)")
	}
	fmt.Print(res.Report)
	if rs := res.Recovery; rs.Ran {
		fmt.Printf("recovery: total %dns = scan %dns + redo %dns + undo %dns + rebuild %dns\n",
			rs.TotalNS, rs.ScanNS, rs.RedoNS, rs.UndoNS, rs.RebuildNS)
		fmt.Printf("recovery: ring span %d (%s), %d entries scanned, %d redone, %d undone, %d stray revoked, %d resident\n",
			rs.RingSpan, map[bool]string{true: "redo", false: "undo"}[rs.Redo],
			rs.EntriesScanned, rs.EntriesRedone, rs.EntriesUndone, rs.StrayRevoked, rs.Resident)
	}
	if res.Err != nil {
		fmt.Printf("tincacrash: blackbox: INCONSISTENCY: %v\n", res.Err)
		return 1
	}
	return 0
}

// writeFailureBlackboxes re-runs up to five failing trials of the serial
// sweep cfg with the forensic path — same configuration, so the same
// persist stream — and writes each report into dir (best effort — CI
// uploads the directory as an artifact on failure).
func writeFailureBlackboxes(dir string, cfg crash.SweepConfig, failures []crash.Failure) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "tincacrash: blackbox-out: %v\n", err)
		return
	}
	n := len(failures)
	if n > 5 {
		n = 5
	}
	for _, f := range failures[:n] {
		res, err := crash.Blackbox(cfg, f.Boundary, f.EvictP)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tincacrash: blackbox-out boundary %d: %v\n", f.Boundary, err)
			continue
		}
		name := filepath.Join(dir, fmt.Sprintf("blackbox-b%d-p%v.txt", f.Boundary, f.EvictP))
		body := fmt.Sprintf("failure: boundary=%d evictp=%v\noracle: %v\n\n%s", f.Boundary, f.EvictP, f.Err, res.Report)
		if res.Err != nil {
			body += fmt.Sprintf("\nre-run verification: %v\n", res.Err)
		}
		if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "tincacrash: blackbox-out: %v\n", err)
			continue
		}
		fmt.Fprintf(os.Stderr, "tincacrash: blackbox report written to %s\n", name)
	}
}

func runSweep(a sweepArgs) int {
	kind, err := crash.ParseKind(a.kind)
	if err != nil {
		return fatalf("%v", err)
	}
	fault, err := crash.ParseFault(a.fault)
	if err != nil {
		return fatalf("%v", err)
	}
	var ps []float64
	for _, f := range strings.Split(a.evictPs, ",") {
		p, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil || p < 0 || p > 1 {
			return fatalf("bad -evictps entry %q", f)
		}
		ps = append(ps, p)
	}
	cfg := crash.SweepConfig{
		Kind:          kind,
		Seed:          a.seed,
		Ops:           a.ops,
		EvictPs:       ps,
		Stride:        a.stride,
		MaxBoundaries: a.maxB,
		Workers:       a.workers,
		Fault:         fault,
		Checkpoint:    a.ckpt,
		Rings:         a.rings,
	}
	if a.groupBlocks > 0 {
		cfg.Group = crash.GroupConfig{Blocks: a.groupBlocks, FSWorkers: a.fsWorkers, RawCommitters: a.committers}
	}
	lastPct := -1
	cfg.Progress = func(done, total, failures int) {
		pct := done * 100 / total
		if pct != lastPct && (a.verbose || pct%5 == 0 || done == total) {
			lastPct = pct
			fmt.Fprintf(os.Stderr, "\rtincacrash: sweep %d/%d trials (%d%%), %d failures", done, total, pct, failures)
		}
	}
	res, err := crash.Sweep(cfg)
	fmt.Fprintln(os.Stderr)
	if err != nil {
		return fatalf("%v", err)
	}

	mode := "serial"
	if a.groupBlocks > 0 {
		mode = fmt.Sprintf("group(blocks=%d,fs=%d,raw=%d)", a.groupBlocks, a.fsWorkers, a.committers)
	}
	if a.ckpt {
		mode += "+ckpt"
	}
	if a.rings > 1 {
		mode += fmt.Sprintf("+rings=%d", a.rings)
	}
	fmt.Printf("tincacrash: %s %s sweep: %d boundaries of %d-op space x %d evictPs = %d trials, %d crashed, %d failures\n",
		a.kind, mode, res.Boundaries, res.BoundarySpace, len(ps), res.Runs, res.Crashes, len(res.Failures))
	if len(res.Failures) == 0 {
		return 0
	}

	show := res.Failures
	if len(show) > 5 {
		show = show[:5]
	}
	for _, f := range show {
		fmt.Printf("  FAIL boundary=%d evictp=%v: %v\n", f.Boundary, f.EvictP, f.Err)
	}
	if len(res.Failures) > len(show) {
		fmt.Printf("  ... and %d more\n", len(res.Failures)-len(show))
	}
	if a.bbOut != "" && a.groupBlocks == 0 {
		writeFailureBlackboxes(a.bbOut, cfg, res.Failures)
	}
	switch {
	case a.groupBlocks > 0:
		fmt.Printf("group failures are scheduling-dependent; re-run: tincacrash -sweep -kind %s -seed %d -ops %d -group-blocks %d -fs-workers %d -committers %d\n",
			a.kind, a.seed, a.ops, a.groupBlocks, a.fsWorkers, a.committers)
	case a.minimize:
		min, err := crash.Minimize(cfg, res.Failures[0])
		if err != nil {
			fmt.Fprintf(os.Stderr, "tincacrash: minimize: %v\n", err)
			fmt.Printf("replay: tincacrash -replay '%s'\n", cfg.ReplayLine(res.Failures[0]))
		} else {
			fmt.Printf("minimal reproducer: %d ops at boundary %d (%d shrink trials): %v\n",
				len(min.Spec.Trace), min.Spec.Boundary, min.Trials, min.Err)
			fmt.Printf("replay: tincacrash -replay '%s'\n", min.Spec)
		}
	default:
		fmt.Printf("replay: tincacrash -replay '%s'\n", cfg.ReplayLine(res.Failures[0]))
	}
	return 1
}

func runRandomTrials(kindF string, trials int, seed int64, ops int, evictP float64, verbose bool) int {
	kind, err := crash.ParseKind(kindF)
	if err != nil {
		return fatalf("%v", err)
	}
	rng := sim.NewRand(seed)
	failures, crashes := 0, 0
	for trial := 0; trial < trials; trial++ {
		p := evictP
		if p < 0 {
			p = rng.Float64()
		}
		tseed := rng.Int63()
		res, err := crash.Trial(kind, tseed, ops, p)
		if res.Crashed {
			crashes++
		}
		if err != nil {
			failures++
			fmt.Fprintf(os.Stderr, "trial %d (seed=%d evictp=%v acked=%d inflight=%q): INCONSISTENCY: %v\n",
				trial, tseed, p, res.OpsAcked, res.Inflight, err)
		} else if verbose {
			fmt.Printf("trial %d: ok (crashed=%v acked=%d)\n", trial, res.Crashed, res.OpsAcked)
		}
	}
	fmt.Printf("tincacrash: %d trials, %d crashed, %d failures\n", trials, crashes, failures)
	if failures > 0 {
		return 1
	}
	return 0
}
