// Command benchmark is the repository's performance ruler: six closed-loop
// workloads over the storage stack, end-to-end metrics on two named rulers
// (simulated time of the modelled NVM and disk, host time of the Go code),
// and a traced run that splits each workload's time by layer. README.md
// explains every workload and metric; BENCHMARK.json at the repository root
// declares them for the driver.
//
//	bash benchmark/run.sh --workload fio_read_hot --seed 1 --seconds 10 --trace 0
//	bash benchmark/run.sh -workload tpcc,rw_2client -trace 1
//	bash benchmark/run.sh -repeat 10
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"strings"
)

func main() {
	var (
		names    = flag.String("workload", "", "comma-separated workloads to run (default: all six)")
		seed     = flag.Int64("seed", 42, "seeds every request generator")
		seconds  = flag.Float64("seconds", runSeconds, "host seconds one measured phase lasts")
		ops      = flag.Int64("ops", 0, "fix the measured phase's op count instead of its duration: simulated metrics then repeat exactly")
		trace    = flag.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end run")
		repeat   = flag.Int("repeat", 0, "run each workload N times in fresh processes (seeds seed..seed+N-1) and report the spread")
		traceDir = flag.String("trace-dir", filepath.Join("benchmark", "out"), "where a traced run writes its Chrome trace")
		list     = flag.Bool("manifest", false, "print the BENCHMARK.json these tables imply and exit")
	)
	flag.Parse()
	if *list {
		os.Stdout.Write(manifest())
		return
	}
	selected, err := selectWorkloads(*names)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	if *repeat > 0 {
		os.Exit(repeatRuns(selected, *repeat, *seed, *seconds, *ops))
	}

	ok := true
	results := map[string]result{}
	summary := map[string]json.RawMessage{}
	var last []byte
	for _, w := range selected {
		cfg := runConfig{seed: *seed, seconds: *seconds, ops: *ops, trace: *trace == 1, setups: 3}
		if cfg.trace {
			cfg.tracePath = filepath.Join(*traceDir, "trace-"+w.name+".json")
		}
		res, err := run(cfg, w.spec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		if cfg.trace {
			maps.Copy(res.metrics, runProbes(probeSegment))
		}
		printReport(w.name, cfg, res)
		last = resultLine(cfg, res)
		results[w.name], summary[w.name] = res, last
		ok = ok && res.correct()
	}
	tinca, haveTinca := results["fio_write_heavy"]
	classicRun, haveClassic := results["fio_write_heavy_classic"]
	if *trace == 1 && haveTinca && haveClassic {
		printFidelity(tinca, classicRun)
	}
	// One workload: the last line is the driver's result object. Several:
	// one object holding each workload's, and no claim — this program
	// measures, a change's issue claims.
	if len(selected) == 1 {
		fmt.Printf("%s\n", last)
	} else {
		all, _ := json.Marshal(summary) // RawMessage values are already valid JSON
		fmt.Printf("{\"workloads\":%s,\"claim\":null}\n", all)
	}
	if !ok {
		os.Exit(1)
	}
}

func selectWorkloads(names string) ([]workloadDef, error) {
	if names == "" {
		return workloads, nil
	}
	var out []workloadDef
	for _, n := range strings.Split(names, ",") {
		found := false
		for _, w := range workloads {
			if w.name == n {
				out, found = append(out, w), true
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown workload %q", n)
		}
	}
	return out, nil
}

// declared returns the metric list a run of this kind must report.
func declared(cfg runConfig) []metricDef {
	if cfg.trace {
		return perLayer
	}
	return endToEnd
}

// printReport prints every metric by name with its unit, one per line.
func printReport(name string, cfg runConfig, res result) {
	kind := "end-to-end (untraced, stack.New)"
	if cfg.trace {
		kind = "per-layer (traced, self-assembled stack)"
	}
	fmt.Printf("== %s  seed=%d  %s\n", name, cfg.seed, kind)
	for _, m := range declared(cfg) {
		fmt.Printf("  %-36s %18.6f %-6s (%s is better)\n", m.name, res.metrics[m.name], m.unit, m.better)
	}
	for _, n := range res.notes {
		fmt.Printf("  note: %s\n", n)
	}
	for _, p := range res.problems {
		fmt.Printf("  FAILED CHECK: %s\n", p)
	}
	fmt.Printf("  attempted=%d failed=%d correct=%v\n", res.attempted, res.failed, res.correct())
}

// resultLine encodes a run the way the driver reads it.
func resultLine(cfg runConfig, res result) []byte {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	doc := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.correct(), res.attempted, res.failed, map[string]value{}}
	for _, m := range declared(cfg) {
		doc.Metrics[m.name] = value{res.metrics[m.name], m.unit}
	}
	out, err := json.Marshal(doc)
	if err != nil { // a NaN or Inf metric: report the run as broken, not as JSON
		fmt.Fprintln(os.Stderr, "benchmark: encode result:", err)
		os.Exit(1)
	}
	return out
}
