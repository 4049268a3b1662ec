package crash

import (
	"bytes"
	"errors"
	"fmt"

	"tinca/internal/core"
	"tinca/internal/flight"
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
	// Err holds any verification failure (flight window, remount, fsck,
	// cache invariants, the model oracle). The report above is still
	// valid — it was decoded before recovery ran — which is exactly when
	// it matters.
	Err error
}

// Blackbox runs one deterministic trial of a Tinca sweep configuration
// (seed, trace length and layout options; the flight recorder is always
// on), crashes at the given persist-op boundary (negative = midway through
// the workload, sized by a counting run), decodes the surviving flight
// ring into a forensic report, then remounts, applies the sweep's oracle
// and reports the §4.5 recovery breakdown. Passing the SweepConfig that
// found a failure re-runs that failure's exact persist stream. The
// returned error is reserved for harness problems; verification failures
// land in BlackboxResult.Err.
func Blackbox(cfg SweepConfig, boundary int64, evictP float64) (*BlackboxResult, error) {
	if cfg.Kind != stack.Tinca {
		return nil, errors.New("crash: blackbox requires the Tinca stack")
	}
	traces := cfg.traces()
	res := &BlackboxResult{Boundary: boundary}
	if boundary < 0 {
		cex, err := runTrial(cfg.trial(traces, -1, 1))
		if err != nil {
			return nil, fmt.Errorf("crash: blackbox counting run: %w", err)
		}
		res.BoundarySpace = cex.boundarySpace
		res.Boundary = cex.boundarySpace / 2
	}

	ex, err := execute(cfg.trial(traces, res.Boundary, evictP))
	if err != nil {
		return nil, err
	}
	res.Crashed = ex.crashed
	// ex.bb was decoded before Remount: the report shows the pre-crash
	// timeline, not recovery's own events.
	if res.Report, err = report(ex.bb); err != nil {
		return nil, err
	}
	res.Err = ex.verify()
	if ex.remountErr != nil {
		// Recovery refused the image: re-decode the flight ring so the
		// report carries the terminal recover-fail event (and its
		// structural-failure code) instead of only the pre-crash timeline.
		if rep, err := report(ex.decodeFlight()); err == nil {
			res.Report = rep
		}
		return res, nil
	}
	res.Recovery = ex.s.TCache.RecoveryStats()
	return res, nil
}

// report renders a decoded flight ring with its last 32 events.
func report(bb *flight.Blackbox) (string, error) {
	var buf bytes.Buffer
	err := bb.Report(&buf, 32)
	return buf.String(), err
}
