package exp

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite BENCH_sim.json from this run")

// ledgerPath is the checked-in ledger, at the repository root.
const ledgerPath = "../../BENCH_sim.json"

// ledgerOptions pins the one scale and seed every ledger row is taken at.
var ledgerOptions = Options{Scale: 0.1, Seed: 42}

// ledgerExcluded lists the registered figures whose numbers do not repeat
// exactly, with the reason. Every other registered figure is in the ledger.
var ledgerExcluded = map[string]string{
	"groupcommit":   "batch formation depends on real time (the SealWaitNS sleep)",
	"phases":        "batch formation depends on real time (the SealWaitNS sleep)",
	"readhit":       "the writer row paces its commits off host scheduling (runtime.Gosched)",
	"writerscaling": "batch formation depends on real time (the SealWaitNS sleep)",
	"indexscale":    "timed on the host clock, not the simulated one",
}

// ledger is BENCH_sim.json: every numeric cell and Metrics entry of the
// figures that repeat exactly, keyed figure/row/column (a metric is
// figure/metric/name).
type ledger struct {
	Options  Options           `json:"options"`
	Excluded map[string]string `json:"excluded"`
	Rows     map[string]string `json:"rows"`
}

// numericCell reports whether a printed cell is a number, allowing a
// trailing unit (1.85x, 76.2%, 45.9µs).
func numericCell(s string) bool {
	_, err := strconv.ParseFloat(strings.TrimRight(s, "x%µnms"), 64)
	return err == nil
}

func buildLedger(t *testing.T) ledger {
	l := ledger{Options: ledgerOptions, Excluded: ledgerExcluded, Rows: map[string]string{}}
	for _, name := range Names() {
		if _, ok := ledgerExcluded[name]; ok {
			continue
		}
		tb, err := Run(name, ledgerOptions)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for r, row := range tb.Rows {
			for c, cell := range row {
				if c < len(tb.Cols) && numericCell(cell) {
					l.Rows[fmt.Sprintf("%s/%d/%s", name, r, tb.Cols[c])] = cell
				}
			}
		}
		for k, v := range tb.Metrics {
			l.Rows[name+"/metric/"+k] = strconv.FormatFloat(v, 'g', -1, 64)
		}
	}
	return l
}

// TestSimLedger regenerates every repeatable figure at ledgerOptions and
// compares it with BENCH_sim.json exactly. A change that moves a simulated
// number shows here as a row diff; `go test ./internal/exp -run SimLedger
// -update` rewrites the file.
func TestSimLedger(t *testing.T) {
	got := buildLedger(t)
	if *update {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(ledgerPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(ledgerPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	var want ledger
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&want); err != nil {
		t.Fatalf("%s: %v", ledgerPath, err)
	}
	if want.Options != got.Options {
		t.Fatalf("ledger taken at %+v, test runs at %+v", want.Options, got.Options)
	}
	var diff []string
	for k, w := range want.Rows {
		if g, ok := got.Rows[k]; !ok {
			diff = append(diff, fmt.Sprintf("- %s = %s", k, w))
		} else if g != w {
			diff = append(diff, fmt.Sprintf("~ %s = %s, was %s", k, g, w))
		}
	}
	for k, g := range got.Rows {
		if _, ok := want.Rows[k]; !ok {
			diff = append(diff, fmt.Sprintf("+ %s = %s", k, g))
		}
	}
	for k := range want.Excluded {
		if _, ok := got.Excluded[k]; !ok {
			diff = append(diff, "no longer excluded: "+k)
		}
	}
	for k := range got.Excluded {
		if _, ok := want.Excluded[k]; !ok {
			diff = append(diff, "newly excluded: "+k)
		}
	}
	if len(diff) > 0 {
		sort.Strings(diff)
		t.Fatalf("%d ledger rows differ from %s (rerun with -update if the move is meant, and explain it):\n%s",
			len(diff), ledgerPath, strings.Join(diff, "\n"))
	}
}
