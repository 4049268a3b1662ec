package main

import (
	"encoding/json"
	"fmt"

	"tinca/internal/stack"
)

// runSeconds is how long one measured phase lasts unless -seconds or -ops
// says otherwise; BENCHMARK.json's run_seconds repeats it.
const runSeconds = 10

// metricDef declares one metric the way BENCHMARK.json lists it. bound is
// meaningful for end-to-end metrics only.
type metricDef struct {
	name   string
	unit   string
	better string // "higher" or "lower"
	bound  float64
}

// workloadDef names one workload, why it exists and how it is set up.
type workloadDef struct {
	name string
	why  string
	spec spec
}

var workloads = []workloadDef{
	{"fio_write_heavy", "4KB random R/W 3/7 on a 32MB file, twice the NVM cache: commit, COW, eviction and miss fill all run (paper Fig 7)",
		spec{stack.Tinca, 1, fioBuilder(32<<20, 30, 40_000)}},
	{"fio_write_heavy_classic", "the same request stream on the JBD2-journal + Flashcache baseline: core is bypassed, shared layers are not",
		spec{stack.Classic, 1, fioBuilder(32<<20, 30, 40_000)}},
	{"fio_read_hot", "100% 4KB random reads on an 8MB file that fits the cache: read path only, commit path and disk idle",
		spec{stack.Tinca, 1, fioBuilder(8<<20, 100, 150_000)}},
	{"tpcc", "TPC-C mix over many files: sub-block read-modify-write, appends, multi-block transactions with write hits (paper Fig 8)",
		spec{stack.Tinca, 1, buildTPCC}},
	{"rw_2client", "one reader and one writer goroutine on one hot 8MB file: FS lock and seqlock interplay, group commit under a live reader",
		spec{stack.Tinca, 2, buildRW2}},
	{"crash_recover", "write, fsync, crash mid-commit, remount, read back every block: durability of acked writes and restart time",
		spec{stack.Tinca, 1, buildCrash}},
}

// endToEnd is what a user of the stack sees. The driver's contract asks
// that every workload report every one of them and that none is ever zero,
// so only metrics defined on all six workloads are here; the per-workload
// counts of the paper (clflush, disk writes, write amplification, recovery
// time) are per-layer metrics, and correctness is the result line's
// correct/failed pair. Bounds are at least three times the spread between
// ten runs with ten seeds; host time on the shared 2-core sandbox drifts by
// a tenth from minute to minute whatever runs (a pure spin loop does too),
// so everything timed on the host has the widest bound the contract allows
// (README.md has the measurements).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"host_ops_per_s", "1/s", "higher", 0.25},
	{"host_p99_us", "us", "lower", 0.25},
	{"host_allocs_per_op", "count", "lower", 0.06},
	{"host_heap_mb", "MB", "lower", 0.05},
	{"sim_ops_per_s", "1/s", "higher", 0.05},
}

// tracedLayers are the layers with a public seam the traced run can wrap.
var tracedLayers = [nLayers]string{"workload", "fs", "core", "jbd", "classic", "blockdev"}

// spanLatencies are the spans whose latency distribution is reported:
// metric prefix, span kind, and whether simulated time is reported too.
var spanLatencies = []struct {
	prefix string
	kind   spanKind
	sim    bool
}{
	{"fs.read", kFSRead, false},
	{"fs.write", kFSWrite, false},
	{"core.read", kCoreRead, false},
	{"core.commit", kCoreCommit, true},
	{"jbd.commit", kJBDCommit, true},
}

var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var defs []metricDef
	add := func(name, unit, better string) {
		defs = append(defs, metricDef{name: name, unit: unit, better: better})
	}
	// Traced run: where the measured phase's time went.
	for _, l := range tracedLayers {
		add(l+".calls_per_op", "count", "lower")
		add(l+".self_host_ns_per_op", "ns", "lower")
		add(l+".self_sim_ns_per_op", "ns", "lower")
		add(l+".host_share_pct", "%", "lower")
		add(l+".sim_share_pct", "%", "lower")
	}
	for _, s := range spanLatencies {
		add(s.prefix+"_host_ns_p50", "ns", "lower")
		add(s.prefix+"_host_ns_p99", "ns", "lower")
		if s.sim {
			add(s.prefix+"_sim_ns_p50", "ns", "lower")
			add(s.prefix+"_sim_ns_p99", "ns", "lower")
		}
	}
	add("trace.overhead_pct", "%", "lower")
	add("trace.spans_per_op", "count", "lower")

	// Counters of the traced run (exact on single-client workloads).
	add("core.read_hit_pct", "%", "higher")
	add("core.read_hit_fast_pct", "%", "higher")
	add("core.seqlock_retries_per_kop", "count", "lower")
	add("core.write_hit_pct", "%", "higher")
	add("core.cow_blocks_per_op", "count", "lower")
	add("core.evictions_per_op", "count", "lower")
	add("core.dirty_evictions_per_op", "count", "lower")
	add("core.commits_per_op", "count", "lower")
	add("core.blocks_per_commit", "count", "higher")
	add("core.txns_per_seal", "count", "higher")
	add("core.absorbed_blocks_per_op", "count", "higher")
	add("fs.group_commits_per_op", "count", "lower")
	add("pmem.clflush_per_op", "count", "lower")
	add("pmem.sfence_per_op", "count", "lower")
	add("pmem.atomic16_per_op", "count", "lower")
	add("pmem.bytes_written_per_op", "B", "lower")
	add("pmem.bytes_read_per_op", "B", "lower")
	add("pmem.bytes_written_per_user_byte", "count", "lower")
	add("pmem.max_line_wear", "count", "lower")
	add("blockdev.blocks_written_per_op", "count", "lower")
	add("blockdev.blocks_read_per_op", "count", "lower")
	add("jbd.commits_per_op", "count", "lower")
	add("jbd.log_blocks_per_op", "count", "lower")
	add("jbd.meta_blocks_per_op", "count", "lower")
	add("jbd.checkpoint_blocks_per_op", "count", "lower")
	add("classic.meta_block_writes_per_op", "count", "lower")
	add("classic.write_hit_pct", "%", "higher")
	add("classic.read_hit_pct", "%", "higher")

	// Simulated latency per op of the traced phase. Not end-to-end metrics:
	// a deterministic latency reads the same on every run (8.500 us for
	// every read of fio_read_hot), which the driver takes for a stuck clock.
	add("workload.sim_p50_us", "us", "lower")
	add("workload.sim_p99_us", "us", "lower")

	// Per-client rates of the untraced reference phase (rw_2client only).
	add("workload.read_ops_per_s", "1/s", "higher")
	add("workload.write_ops_per_s", "1/s", "higher")

	// Crash and recovery (crash_recover only; medians over its cycles).
	add("workload.acked_lost", "count", "lower")
	add("workload.recovery_sim_us", "us", "lower")
	add("workload.recovery_host_ms", "ms", "lower")
	add("core.recovery_scan_sim_ns", "ns", "lower")
	add("core.recovery_redo_sim_ns", "ns", "lower")
	add("core.recovery_undo_sim_ns", "ns", "lower")
	add("core.recovery_rebuild_sim_ns", "ns", "lower")
	add("core.recovery_entries_scanned", "count", "lower")
	add("core.recovery_ring_span", "count", "lower")
	add("core.recovery_redo_pct", "%", "higher")

	// Layer probes: each layer driven alone on fresh devices.
	for _, p := range probes {
		add(p.name+"_host_ns", "ns", "lower")
		if p.sim {
			add(p.name+"_sim_ns", "ns", "lower")
		}
		if p.allocs {
			add(p.name+"_allocs", "count", "lower")
		}
	}
	return defs
}

// manifest renders BENCHMARK.json from the tables above, so the checked-in
// file cannot name a metric the program does not emit (smoke_test.go
// compares the two).
func manifest() []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{w.name, w.why})
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{m.name, m.unit, m.better, m.bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{m.name, m.unit, m.better})
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(fmt.Sprintf("manifest: %v", err)) // static tables always encode
	}
	return append(out, '\n')
}
