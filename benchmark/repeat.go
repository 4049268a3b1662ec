package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// repeatRuns runs each workload n times the way the driver does — a fresh
// process per run, a different seed each time — and reports, per workload
// and end-to-end metric, the median, the quartiles and the spread: the
// distance between the quartiles as a share of the median. It returns the
// exit code: 1 if any spread exceeds the metric's bound, or any run was
// incorrect.
func repeatRuns(selected []workloadDef, n int, seed int64, seconds float64, ops int64) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: -repeat:", err)
		return 1
	}
	code := 0
	for _, w := range selected {
		values := map[string][]float64{}
		for i := 0; i < n; i++ {
			cmd := exec.Command(self, "-workload", w.name, "-seed", strconv.FormatInt(seed+int64(i), 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-ops", strconv.FormatInt(ops, 10), "-trace", "0")
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			line := out[bytes.LastIndexByte(bytes.TrimSpace(out), '\n')+1:]
			var doc struct {
				Correct bool
				Metrics map[string]struct{ Value float64 }
			}
			if jerr := json.Unmarshal(line, &doc); jerr != nil || err != nil || !doc.Correct {
				fmt.Fprintf(os.Stderr, "benchmark: -repeat: %s seed %d: run failed (%v, %v): %s\n", w.name, seed+int64(i), err, jerr, line)
				code = 1
				continue
			}
			for name, v := range doc.Metrics {
				values[name] = append(values[name], v.Value)
			}
		}
		fmt.Printf("== %s  %d runs, seeds %d..%d\n", w.name, n, seed, seed+int64(n)-1)
		fmt.Printf("  %-22s %16s %16s %16s %9s %7s\n", "metric", "q1", "median", "q3", "spread", "bound")
		for _, m := range endToEnd {
			v := values[m.name]
			if len(v) < 2 {
				continue
			}
			q1, q2, q3 := quartiles(v)
			spread := (q3 - q1) / q2
			flag := ""
			if spread > m.bound && m.name != "setup_s" {
				flag, code = "  EXCEEDS BOUND", 1
			}
			fmt.Printf("  %-22s %16.6f %16.6f %16.6f %8.3f%% %6.1f%%%s\n", m.name, q1, q2, q3, 100*spread, 100*m.bound, flag)
		}
	}
	return code
}

// quartiles cuts v the way Python's statistics.quantiles(v, n=4) does (the
// exclusive method), which is what the driver computes spreads with.
func quartiles(v []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), v...)
	sort.Float64s(d)
	ld, m := len(d), len(d)+1
	cut := func(i int) float64 {
		j := min(max(i*m/4, 1), ld-1)
		delta := float64(i*m - j*4)
		return (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}
