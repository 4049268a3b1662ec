package main

import (
	"fmt"
	"maps"
	"math"
	"time"

	"tinca/internal/metrics"
	"tinca/internal/stack"
)

// setUp builds a rig and a scenario on it, and times both: stack
// construction, layout or load, and warm-up are the workload's set-up.
func setUp(sp spec, cfg runConfig, traced bool) (*rig, scenario, float64, error) {
	start := time.Now()
	r, err := newRig(sp.kind, traced, sp.clients, cfg.fault)
	if err != nil {
		return nil, nil, 0, err
	}
	sc, err := sp.build(r, cfg)
	if err != nil {
		return nil, nil, 0, err
	}
	return r, sc, time.Since(start).Seconds(), nil
}

// run is the driver every workload shares. Untraced, it reports the
// end-to-end metrics from stack.New's stack. Traced, it measures an
// untraced reference phase, then the same phase on the self-assembled stack
// with span wrappers, and reports the workload's per-layer metrics (the
// layer probes, which no workload influences, are main's to add).
func run(cfg runConfig, sp spec) (result, error) {
	res := result{metrics: map[string]float64{}}
	if !cfg.trace {
		return res, runUntraced(&res, cfg, sp)
	}
	return res, runTraced(&res, cfg, sp)
}

func runUntraced(res *result, cfg runConfig, sp spec) error {
	var (
		r      *rig
		sc     scenario
		setupS []float64
	)
	for i := 0; i < max(cfg.setups, 1); i++ {
		var (
			s   float64
			err error
		)
		if r, sc, s, err = setUp(sp, cfg, false); err != nil {
			return err
		}
		setupS = append(setupS, s)
	}
	meter := startHostMeter()
	sim0 := r.clock.Now()
	ph := sc.measure(cfg.stopFrom(time.Now()))
	elapsedSim := r.clock.Now() - sim0
	mallocs, heapMB := meter.stop()

	res.attempted, res.failed = ph.ops, ph.failed
	finish(res, sc)
	m := res.metrics
	m["setup_s"] = median(setupS)
	m["host_ops_per_s"] = ph.hostRate
	m["host_p99_us"] = ph.host.quantile(0.99) / 1e3
	m["host_allocs_per_op"] = float64(mallocs) / float64(ph.ops)
	m["host_heap_mb"] = heapMB
	m["sim_ops_per_s"] = float64(ph.ops) / elapsedSim.Seconds()
	tq := tailQuantile(ph.host.n)
	res.notes = append(res.notes,
		latencyNote("host", ph.host.n, tq, ph.host.quantile(tq)/1e3),
		latencyNote("sim", ph.lat.count(), tq, float64(ph.lat.quantile(tq))/1e3),
		fmt.Sprintf("host latency p50 = %.3f us; sim latency p50 = %.3f us, p99 = %.3f us (per-layer metrics of the traced run)",
			ph.host.quantile(0.5)/1e3, float64(ph.lat.quantile(0.5))/1e3, float64(ph.lat.quantile(0.99))/1e3))
	return nil
}

// finish runs the scenario's verification and folds it into the result.
func finish(res *result, sc scenario) {
	attempted, failed, problems := sc.verify()
	res.attempted += attempted
	res.failed += failed
	res.problems = append(res.problems, problems...)
}

func runTraced(res *result, cfg runConfig, sp spec) error {
	// The measured time is split in two: an untraced reference phase, then
	// the same stretch of the same stream traced, so that the difference
	// between their rates is the tracing overhead and nothing else.
	cfg.seconds /= 2
	_, refSc, _, err := setUp(sp, cfg, false)
	if err != nil {
		return err
	}
	ref := refSc.measure(cfg.stopFrom(time.Now()))
	res.failed += ref.failed

	r, sc, _, err := setUp(sp, cfg, true)
	if err != nil {
		return err
	}
	c0 := r.counters()
	r.tr.start()
	ph := sc.measure(cfg.stopFrom(time.Now()))
	r.tr.on = false
	c := r.counters().sub(c0)

	res.attempted, res.failed = ph.ops, res.failed+ph.failed
	finish(res, sc)

	maps.Copy(res.metrics, ph.extra)
	for _, name := range clientRateMetrics {
		if v, ok := ref.extra[name]; ok {
			res.metrics[name] = v // per-client rates come from the untraced phase
		}
	}
	layerMetrics(res, r, sp, ph, c)
	res.metrics["workload.sim_p50_us"] = float64(ph.lat.quantile(0.50)) / 1e3
	res.metrics["workload.sim_p99_us"] = float64(ph.lat.quantile(0.99)) / 1e3
	res.metrics["trace.overhead_pct"] = 100 * (ref.hostRate - ph.hostRate) / ref.hostRate
	if cfg.tracePath != "" {
		if err := r.tr.writeChrome(cfg.tracePath); err != nil {
			return fmt.Errorf("write trace: %w", err)
		}
	}
	return nil
}

// counts is every count the per-layer metrics are derived from, read
// through the layers' public Stats() where one exists and the shared
// Recorder otherwise (the Classic cache, the journal and pmem's atomic
// stores have no typed stats).
type counts map[string]int64

func (r *rig) counters() counts {
	disk := r.disk.Stats()
	c := counts{
		"sim_ns":        int64(r.clock.Now()),
		"user_bytes":    r.userBytes.Load(),
		"group_commits": r.fs.Stats().GroupCommits + r.groupCommitsBefore,
		"disk_written":  disk.BlocksWritten,
		"disk_read":     disk.BlocksRead,
		"clflush":       r.rec.Get(metrics.NVMCLFlush),
		"sfence":        r.rec.Get(metrics.NVMSFence),
		"atomic16":      r.rec.Get(metrics.NVMAtomic16),
		"nvm_written":   r.rec.Get(metrics.NVMBytesWrite),
		"nvm_read":      r.rec.Get(metrics.NVMBytesRead),
	}
	if r.kind == stack.Tinca {
		cs := r.tcache.Stats()
		c["read_hits"], c["read_misses"] = cs.ReadHits, cs.ReadMisses
		c["read_hits_fast"], c["seqlock_retries"] = cs.ReadHitFast, cs.SeqlockRetries
		c["write_hits"], c["write_misses"] = cs.WriteHits, cs.WriteMisses
		c["cow_blocks"], c["absorbed_blocks"] = cs.COWBlocks, cs.AbsorbedBlocks
		c["evictions"], c["dirty_evictions"] = cs.Evictions, cs.DirtyEvictions
		c["commits"], c["blocks"] = cs.Commits, cs.Blocks
		c["seals"], c["sealed_txns"] = cs.GroupSeals, cs.GroupedTxns
		return c
	}
	c["jbd_commits"] = r.rec.Get(metrics.JournalCommit)
	c["jbd_log"] = r.rec.Get(metrics.JournalBlocks)
	c["jbd_meta"] = r.rec.Get(metrics.JournalMeta)
	c["jbd_checkpoint"] = r.rec.Get(metrics.JournalCkptBlks)
	c["classic_meta"] = r.rec.Get(metrics.CacheMetaWrite)
	c["classic_write_hits"] = r.rec.Get(metrics.CacheWriteHit)
	c["classic_write_misses"] = r.rec.Get(metrics.CacheWriteMiss)
	c["classic_read_hits"] = r.rec.Get(metrics.CacheReadHit)
	c["classic_read_misses"] = r.rec.Get(metrics.CacheReadMiss)
	return c
}

func (c counts) sub(o counts) counts {
	d := counts{}
	for k, v := range c {
		d[k] = v - o[k]
	}
	return d
}

func pct(part, rest int64) float64 {
	if part+rest == 0 {
		return 0
	}
	return 100 * float64(part) / float64(part+rest)
}

func per(n, d int64) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
}

// layerMetrics derives the traced run's per-layer metrics and asserts that
// the accounting closes: the layers' self times add up to the root spans,
// the root spans tile the phase, and (one client) the simulated column is
// the clock's own delta to the nanosecond.
func layerMetrics(res *result, r *rig, sp spec, ph phaseResult, c counts) {
	m, ops := res.metrics, ph.ops
	agg, sumHost, sumSim := r.tr.selfTotals()
	var hostShares, simShares float64
	for l, name := range tracedLayers {
		a := agg[l]
		m[name+".calls_per_op"] = per(a.calls, ops)
		m[name+".self_host_ns_per_op"] = per(a.selfHost, ops)
		m[name+".self_sim_ns_per_op"] = per(a.selfSim, ops)
		m[name+".host_share_pct"] = 100 * per(a.selfHost, r.tr.rootHost)
		m[name+".sim_share_pct"] = 100 * per(a.selfSim, r.tr.rootSim)
		hostShares += m[name+".host_share_pct"]
		simShares += m[name+".sim_share_pct"]
	}
	if math.Abs(hostShares-100) > 0.5 || math.Abs(simShares-100) > 0.5 {
		res.problems = append(res.problems,
			fmt.Sprintf("trace: layer shares sum to %.3f%% host, %.3f%% sim, want 100±0.5", hostShares, simShares))
	}
	if covered := float64(r.tr.rootHost) / float64(ph.busy); math.Abs(covered-1) > 0.005 {
		res.problems = append(res.problems,
			fmt.Sprintf("trace: root spans cover %.2f%% of the measured phase", 100*covered))
	}
	if sp.clients == 1 && sumSim != c["sim_ns"] {
		res.problems = append(res.problems,
			fmt.Sprintf("trace: layers' simulated self time %d ns != clock delta %d ns", sumSim, c["sim_ns"]))
	}
	res.notes = append(res.notes, fmt.Sprintf("traced phase: %d ops, %d spans (%d kept), self host %d ns, self sim %d ns",
		ops, r.tr.total, len(r.tr.spans), sumHost, sumSim))

	for _, s := range spanLatencies {
		m[s.prefix+"_host_ns_p50"] = r.tr.hostHist[s.kind].quantile(0.50)
		m[s.prefix+"_host_ns_p99"] = r.tr.hostHist[s.kind].quantile(0.99)
		if s.sim {
			m[s.prefix+"_sim_ns_p50"] = r.tr.simHist[s.kind].quantile(0.50)
			m[s.prefix+"_sim_ns_p99"] = r.tr.simHist[s.kind].quantile(0.99)
		}
	}
	m["trace.spans_per_op"] = per(r.tr.total, ops)

	m["core.read_hit_pct"] = pct(c["read_hits"], c["read_misses"])
	m["core.read_hit_fast_pct"] = 100 * per(c["read_hits_fast"], c["read_hits"])
	m["core.seqlock_retries_per_kop"] = 1000 * per(c["seqlock_retries"], ops)
	m["core.write_hit_pct"] = pct(c["write_hits"], c["write_misses"])
	m["core.cow_blocks_per_op"] = per(c["cow_blocks"], ops)
	m["core.evictions_per_op"] = per(c["evictions"], ops)
	m["core.dirty_evictions_per_op"] = per(c["dirty_evictions"], ops)
	m["core.commits_per_op"] = per(c["commits"], ops)
	m["core.blocks_per_commit"] = per(c["blocks"], c["commits"])
	m["core.txns_per_seal"] = per(c["sealed_txns"], c["seals"])
	m["core.absorbed_blocks_per_op"] = per(c["absorbed_blocks"], ops)
	m["fs.group_commits_per_op"] = per(c["group_commits"], ops)
	m["pmem.clflush_per_op"] = per(c["clflush"], ops)
	m["pmem.sfence_per_op"] = per(c["sfence"], ops)
	m["pmem.atomic16_per_op"] = per(c["atomic16"], ops)
	m["pmem.bytes_written_per_op"] = per(c["nvm_written"], ops)
	m["pmem.bytes_read_per_op"] = per(c["nvm_read"], ops)
	m["pmem.bytes_written_per_user_byte"] = per(c["nvm_written"], c["user_bytes"])
	_, maxWear := r.mem.Wear()
	m["pmem.max_line_wear"] = float64(maxWear)
	m["blockdev.blocks_written_per_op"] = per(c["disk_written"], ops)
	m["blockdev.blocks_read_per_op"] = per(c["disk_read"], ops)
	m["jbd.commits_per_op"] = per(c["jbd_commits"], ops)
	m["jbd.log_blocks_per_op"] = per(c["jbd_log"], ops)
	m["jbd.meta_blocks_per_op"] = per(c["jbd_meta"], ops)
	m["jbd.checkpoint_blocks_per_op"] = per(c["jbd_checkpoint"], ops)
	m["classic.meta_block_writes_per_op"] = per(c["classic_meta"], ops)
	m["classic.write_hit_pct"] = pct(c["classic_write_hits"], c["classic_write_misses"])
	m["classic.read_hit_pct"] = pct(c["classic_read_hits"], c["classic_read_misses"])
}
