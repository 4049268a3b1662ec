package crash

import (
	"bytes"
	"errors"
	"fmt"

	"tinca/internal/core"
	"tinca/internal/flight"
	"tinca/internal/pmem"
	"tinca/internal/sim"
	"tinca/internal/stack"
)

// BlackboxResult is one forensic crash run: the flight-recorder report
// decoded straight from the crash image, and the recovery breakdown of
// the remount that followed.
type BlackboxResult struct {
	BoundarySpace int64 // persist ops the workload spans (0 when boundary was given)
	Boundary      int64 // boundary the crash was armed at
	Crashed       bool  // whether the armed crash actually fired
	Report        string
	Recovery      core.RecoveryStats
	// Err holds any post-recovery verification failure (fsck, cache
	// invariants, flight window). The report above is still valid — it was
	// decoded before recovery ran — which is exactly when it matters.
	Err error
}

// Blackbox runs one deterministic serial trial of a Tinca sweep
// configuration (seed, trace length and layout options; the flight
// recorder is always on), crashes at the given persist-op boundary
// (negative = midway through the workload, sized by a counting run),
// decodes the surviving flight ring into a forensic report, then remounts
// and reports the §4.5 recovery breakdown. Passing the SweepConfig that
// found a failure re-runs that failure's exact persist stream. The
// returned error is reserved for harness problems; verification failures
// land in BlackboxResult.Err.
func Blackbox(cfg SweepConfig, boundary int64, evictP float64) (*BlackboxResult, error) {
	if cfg.Kind != stack.Tinca {
		return nil, errors.New("crash: blackbox requires the Tinca stack")
	}
	if cfg.Ops <= 0 {
		cfg.Ops = 200
	}
	trace := GenTrace(cfg.Seed, cfg.Ops)
	res := &BlackboxResult{Boundary: boundary}
	if boundary < 0 {
		cout, err := runTrial(cfg.trial(trace, -1, 1))
		if err != nil {
			return nil, fmt.Errorf("crash: blackbox counting run: %w", err)
		}
		res.BoundarySpace = cout.boundarySpace
		res.Boundary = cout.boundarySpace / 2
	}

	sp := cfg.trial(trace, res.Boundary, evictP)
	s, err := stack.New(sp.stackConfig(nil))
	if err != nil {
		return nil, err
	}
	s.Mem.ArmCrash(res.Boundary)
	crashed, _ := pmem.CatchCrash(func() {
		for i := range sp.trace {
			o := sp.trace[i]
			if err := Issue(s.FS, o); err != nil && !o.WantErr {
				panic(fmt.Sprintf("crash: blackbox op %d %v: %v", i, o, err))
			}
		}
	})
	res.Crashed = crashed
	if !crashed {
		s.Mem.DisarmCrash()
	}

	lay := s.TCache.Layout()
	s.Crash(sim.NewRand(sp.imageSeed), sp.evictP)

	// Decode before Remount: the report must show the pre-crash timeline,
	// not recovery's own events.
	bb := flight.Decode(s.Mem, lay.FlightOff, lay.FlightSlots)
	var buf bytes.Buffer
	if err := bb.Report(&buf, 32); err != nil {
		return nil, err
	}
	res.Report = buf.String()
	if err := bb.CheckWindow(); err != nil {
		res.Err = fmt.Errorf("flight window: %w", err)
	}

	if err := s.Remount(); err != nil {
		if res.Err == nil {
			res.Err = fmt.Errorf("remount: %w", err)
		}
		// Recovery refused the image: re-decode the flight ring so the
		// report carries the terminal recover-fail event (and its
		// structural-failure code) instead of only the pre-crash timeline.
		fb := flight.Decode(s.Mem, lay.FlightOff, lay.FlightSlots)
		var fbuf bytes.Buffer
		if rerr := fb.Report(&fbuf, 32); rerr == nil {
			res.Report = fbuf.String()
		}
		return res, nil
	}
	res.Recovery = s.TCache.RecoveryStats()
	if err := checkStructure(s); err != nil && res.Err == nil {
		res.Err = err
	}
	if err := flightPostCheck(bb, s.TCache, 0); err != nil && res.Err == nil {
		res.Err = err
	}
	return res, nil
}
