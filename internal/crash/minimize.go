// Failure minimization: shrink a failing (trace, boundary, evictP)
// triple to a small deterministic reproducer. Serial trials only — group
// trials depend on goroutine scheduling, so their failures are reported
// with full sweep coordinates instead.
//
// The shrink is standard delta-debugging adapted to the crash harness:
//
//  1. confirm the failure reproduces at its sweep coordinates;
//  2. truncate the trace right after the op in flight at the crash —
//     ops the crash never reached cannot matter, and the persist-op
//     stream up to the boundary is unchanged, so the same boundary still
//     fails;
//  3. greedily drop earlier ops, skipping candidates that are invalid
//     against the shadow model (e.g. a write to a never-created file);
//     each removal changes the persist stream, so the candidate's whole
//     boundary space is re-swept for any failing boundary;
//  4. stop at a fixed trial budget or when no single removal helps.
package crash

import (
	"errors"
	"fmt"
)

// minimizeTrialBudget caps the total trials one Minimize may run.
const minimizeTrialBudget = 30000

// MinimizeResult is a shrunk reproducer.
type MinimizeResult struct {
	Spec   ReplaySpec // the minimal failing trace and its boundary
	Err    error      // the failure as it manifests on the minimal trace
	Trials int        // trials spent shrinking
}

// Minimize shrinks a sweep failure to a minimal failing trace and
// boundary. cfg must be the SweepConfig that produced the failure.
func Minimize(cfg SweepConfig, f Failure) (*MinimizeResult, error) {
	if cfg.Group.Blocks > 0 {
		return nil, errors.New("crash: minimization supports serial sweeps only")
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	trials := 0
	run := func(tr []Op, b int64) (*execution, error) {
		trials++
		return runTrial(cfg.trial([][]Op{tr}, b, f.EvictP))
	}

	trace := GenTrace(cfg.Seed, cfg.traceOps())
	ex, err := run(trace, f.Boundary)
	if err == nil {
		return nil, fmt.Errorf("crash: failure at boundary %d evictP %v did not reproduce", f.Boundary, f.EvictP)
	}
	cur, curB, curErr := trace, f.Boundary, err

	// Truncate to the crashed prefix: ops past the in-flight one never
	// ran, and the persist stream up to the boundary is identical.
	if n := ex.result().OpsAcked + 1; n < len(cur) {
		cand := cur[:n]
		if _, err := run(cand, curB); err != nil {
			cur, curErr = cand, err
		}
	}

	// findFailure re-sweeps a candidate's boundary space for any failing
	// boundary (the stream shifted, so the old boundary is meaningless).
	findFailure := func(cand []Op) (int64, error, bool) {
		count, err := run(cand, -1)
		if err != nil {
			// The candidate itself misbehaves without a crash: either a
			// latent ordering bug (report boundary -1) or an invalid
			// trace findValid missed — both end this branch.
			return -1, err, true
		}
		for b := int64(0); b < count.boundarySpace && trials < minimizeTrialBudget; b++ {
			if _, err := run(cand, b); err != nil {
				return b, err, true
			}
		}
		return 0, nil, false
	}

	improved := true
	for improved && trials < minimizeTrialBudget {
		improved = false
		for i := len(cur) - 1; i >= 0 && trials < minimizeTrialBudget; i-- {
			if len(cur) == 1 {
				break
			}
			cand := make([]Op, 0, len(cur)-1)
			cand = append(cand, cur[:i]...)
			cand = append(cand, cur[i+1:]...)
			if !traceValid(cand) {
				continue
			}
			if b, err, ok := findFailure(cand); ok {
				cur, curB, curErr = cand, b, err
				improved = true
			}
		}
	}

	spec := ReplaySpec{Boundary: curB, EvictP: f.EvictP, Trace: cur}
	bindOptions(&spec, &cfg, true)
	return &MinimizeResult{Spec: spec, Err: curErr, Trials: trials}, nil
}

// traceValid reports whether every op in the trace is valid against the
// shadow model when all earlier ops are acknowledged — the invariant the
// Generator maintains and removal candidates can break.
func traceValid(ops []Op) bool {
	m := NewModel()
	for _, o := range ops {
		switch o.Kind {
		case opCreate:
			if _, ok := m.files[o.Path]; ok {
				return false
			}
		case opWrite, opAppend, opTruncate, opRemove, opRename:
			if _, ok := m.files[o.Path]; !ok {
				return false
			}
		case opLink:
			_, okSrc := m.files[o.Path]
			_, okDst := m.files[o.Path2]
			if o.WantErr {
				// Must actually collide to be rejected.
				if !okSrc || !okDst {
					return false
				}
			} else if !okSrc || okDst {
				return false
			}
		default:
			return false
		}
		m.Apply(o)
	}
	return true
}
