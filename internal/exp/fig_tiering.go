package exp

import (
	"fmt"
	"math/rand"

	"tinca/internal/blockdev"
	"tinca/internal/core"
	"tinca/internal/metrics"
	"tinca/internal/objstore"
	"tinca/internal/pmem"
	"tinca/internal/sim"
)

// nvmCapacityBlocks opens a throwaway cache on a free disk to read the
// block capacity of an NVM device of the given size — the tiering
// figures size their working sets as multiples of it ("10x cache").
func nvmCapacityBlocks(nvmBytes int) (int, error) {
	clock := sim.NewClock()
	rec := metrics.NewRecorder()
	mem := pmem.New(nvmBytes, pmem.NVDIMM, clock, rec)
	disk := blockdev.New(1<<16, blockdev.Null, clock, rec)
	c, err := core.Open(mem, disk, core.Options{RingBytes: 4096})
	if err != nil {
		return 0, err
	}
	capacity := c.Capacity()
	if err := c.Close(); err != nil {
		return 0, err
	}
	return capacity, nil
}

// ColdStartWarmup is the "fig: cold-start warmup" bench for the L3
// object tier (DESIGN.md §16). Two phases share the table:
//
// Cold scan: the store already holds the working set (a previous
// incarnation's uploads), NVM and L2 are empty, and one reader scans
// 10x the NVM capacity sequentially — the restart-warmup pattern. With
// read-ahead off every object is a demand fetch paying the full
// request latency serially; with k prefetch workers the stride
// detector keeps k fetches in flight, so the store's request-overlap
// window divides the service time. The headline prefetch_speedup_x
// (8 workers vs off) is gated at >= 2x by
// TestColdStartPrefetchAndUploaderBudget.
//
// Writer: the same tiered stack under a pure commit workload (4x NVM
// capacity, three passes, so destage traffic continuously feeds the
// upload pipeline), once with the uploader paused and once live. The
// batched lanes (upload-watermark absorption + 16-way PUT overlap + DRAM
// payload retention) must price the pipeline into the noise:
// uploader_overhead_pct is the added foreground time, asserted <= 5%.
func ColdStartWarmup(o Options) (*Table, error) {
	o = o.withDefaults()
	t := NewTable("fig: cold-start warmup — sequential scan from the object tier, and uploader drag on a foreground writer",
		"phase", "config", "ops/s (sim)", "sim ns/op", "detail", "vs baseline")

	capacity, err := nvmCapacityBlocks(2 << 20)
	if err != nil {
		return nil, err
	}

	const objectBlocks = 16
	span := 10 * capacity
	span -= span % objectBlocks

	type scanResult struct {
		perSec, nsPerOp float64
		gets            int64
		prefetchedPct   float64
	}
	scan := func(workers int) (scanResult, error) {
		clock := sim.NewClock()
		rec := metrics.NewRecorder()
		store := objstore.NewStore(objstore.S3, clock, rec)
		obj := make([]byte, objectBlocks*core.BlockSize)
		for k := uint64(0); k < uint64(span/objectBlocks); k++ {
			store.Put(k, obj) // the previous life's uploads
		}
		dev := blockdev.New(objstore.DevBlocksFor(256), blockdev.SSD, clock, rec)
		tier, err := objstore.NewTier(uint64(span), dev, store, rec, objstore.TierOptions{
			ObjectBlocks:    objectBlocks,
			PrefetchWorkers: workers,
		})
		if err != nil {
			return scanResult{}, err
		}
		mem := pmem.New(2<<20, pmem.NVDIMM, clock, rec)
		c, err := core.Open(mem, tier, core.Options{RingBytes: 4096})
		if err != nil {
			return scanResult{}, err
		}
		base := store.Stats()
		t0 := clock.Now()
		p := make([]byte, core.BlockSize)
		for i := 0; i < span; i++ {
			if err := c.Read(uint64(i), p); err != nil {
				return scanResult{}, err
			}
		}
		elapsed := (clock.Now() - t0).Seconds()
		gets := store.Stats().Gets - base.Gets
		ts := tier.Stats()
		if err := c.Close(); err != nil {
			return scanResult{}, err
		}
		tier.Close()
		r := scanResult{
			perSec:  float64(span) / elapsed,
			nsPerOp: elapsed * 1e9 / float64(span),
			gets:    gets,
		}
		if gets > 0 {
			r.prefetchedPct = 100 * float64(ts.Prefetches) / float64(gets)
		}
		return r, nil
	}

	var base scanResult
	for _, workers := range []int{0, 2, 4, 8} {
		r, err := scan(workers)
		if err != nil {
			return nil, err
		}
		cfg := "prefetch off"
		speedup := 1.0
		if workers > 0 {
			cfg = fmt.Sprintf("prefetch %dw", workers)
			speedup = ratio(r.perSec, base.perSec)
		} else {
			base = r
		}
		t.AddRow("cold scan", cfg, r.perSec, r.nsPerOp,
			fmt.Sprintf("GETs=%d prefetched=%.0f%%", r.gets, r.prefetchedPct),
			fmt.Sprintf("%.2fx", speedup))
		t.SetMetric(fmt.Sprintf("coldscan_%dw_reads_per_sec", workers), r.perSec)
		if workers > 0 {
			t.SetMetric(fmt.Sprintf("prefetch_speedup_%dw_x", workers), speedup)
		}
		if workers == 8 {
			t.SetMetric("prefetch_speedup_x", speedup)
		}
	}

	// Writer phase: foreground commits with the uploader paused vs live.
	const wObjectBlocks = 64
	wspan := 4 * capacity
	wspan -= wspan % wObjectBlocks
	const blocksPerTxn = 4
	passes := 3
	type writeResult struct {
		perSec, nsPerOp float64
		uploads, blocks int64
	}
	write := func(paused bool) (writeResult, error) {
		clock := sim.NewClock()
		rec := metrics.NewRecorder()
		store := objstore.NewStore(objstore.S3, clock, rec)
		slots := uint64(wspan + 256)
		dev := blockdev.New(objstore.DevBlocksFor(slots), blockdev.SSD, clock, rec)
		tier, err := objstore.NewTier(uint64(wspan), dev, store, rec, objstore.TierOptions{
			ObjectBlocks:  wObjectBlocks,
			UploadWorkers: 16,
			// Both runs get L2 room for the whole working set, so the
			// paused baseline never deadlocks on a stopped consumer and
			// the live run never stalls on backpressure: the delta is
			// purely the upload pipeline's charge.
			MaxDirty: int(slots),
		})
		if err != nil {
			return writeResult{}, err
		}
		if paused {
			tier.Pause(true)
		}
		mem := pmem.New(2<<20, pmem.NVDIMM, clock, rec)
		c, err := core.Open(mem, tier, core.Options{RingBytes: 4096})
		if err != nil {
			return writeResult{}, err
		}
		block := make([]byte, core.BlockSize)
		commits := passes * wspan / blocksPerTxn
		t0 := clock.Now()
		for i := 0; i < commits; i++ {
			txn := c.Begin()
			for b := 0; b < blocksPerTxn; b++ {
				txn.Write(uint64((i*blocksPerTxn+b)%wspan), block)
			}
			if err := txn.Commit(); err != nil {
				return writeResult{}, err
			}
		}
		elapsed := (clock.Now() - t0).Seconds()
		ts := tier.Stats()
		if err := c.Close(); err != nil {
			return writeResult{}, err
		}
		tier.Close()
		return writeResult{
			perSec:  float64(commits) / elapsed,
			nsPerOp: elapsed * 1e9 / float64(commits),
			uploads: ts.Uploads,
			blocks:  ts.UploadBlocks,
		}, nil
	}

	off, err := write(true)
	if err != nil {
		return nil, err
	}
	on, err := write(false)
	if err != nil {
		return nil, err
	}
	overheadPct := 100 * (ratio(off.perSec, on.perSec) - 1)
	t.AddRow("writer", "uploader paused", off.perSec, off.nsPerOp,
		fmt.Sprintf("PUTs=%d blocks=%d", off.uploads, off.blocks), "baseline")
	t.AddRow("writer", "uploader live", on.perSec, on.nsPerOp,
		fmt.Sprintf("PUTs=%d blocks=%d", on.uploads, on.blocks),
		fmt.Sprintf("%+.1f%% time", overheadPct))
	t.SetMetric("writer_commits_per_sec_paused", off.perSec)
	t.SetMetric("writer_commits_per_sec_live", on.perSec)
	t.SetMetric("uploader_overhead_pct", overheadPct)
	t.SetMetric("coldstart_span_x_cache", float64(span)/float64(capacity))

	t.Note = fmt.Sprintf("scan span = %d blocks (10x NVM capacity) out of a pre-populated store; prefetch overlaps object GETs the request window prices at serviceNS/k. Writer: %d passes over 4x capacity; the live uploader's drag stays within the ±5%% budget via upload-watermark batching, 16 PUT lanes and DRAM payload retention", span, passes)
	return t, nil
}

// CapacityCost is the "fig: capacity-miss cost-vs-latency" bench:
// uniform random reads over a working set 10x the NVM capacity — the
// capacity-miss regime where most reads fall through to the object
// store — across object sizes. Small objects keep the read path cheap
// and fast (a 4KB point read drags only 32KB over the wire at
// ObjectBlocks=8); large objects amortize the per-request floors that
// favour the sequential scan and the upload pipeline (ColdStartWarmup)
// but multiply read amplification, dollars per application GB and GET
// tail latency under random access. The rows quantify that knob.
func CapacityCost(o Options) (*Table, error) {
	o = o.withDefaults()
	t := NewTable("fig: capacity-miss cost-vs-latency — random reads at 10x cache capacity vs object size",
		"object KB", "reads/s (sim)", "GETs/s", "read-amp x", "$/GB read", "GET p99 ms")

	capacity, err := nvmCapacityBlocks(2 << 20)
	if err != nil {
		return nil, err
	}
	reads := o.scaled(2400, 600)

	for _, objBlocks := range []int{8, 32, 128} {
		clock := sim.NewClock()
		rec := metrics.NewRecorder()
		store := objstore.NewStore(objstore.S3, clock, rec)
		span := 10 * capacity
		if r := span % objBlocks; r != 0 {
			span += objBlocks - r
		}
		obj := make([]byte, objBlocks*core.BlockSize)
		for k := uint64(0); k < uint64(span/objBlocks); k++ {
			store.Put(k, obj)
		}
		dev := blockdev.New(objstore.DevBlocksFor(256), blockdev.SSD, clock, rec)
		tier, err := objstore.NewTier(uint64(span), dev, store, rec, objstore.TierOptions{
			ObjectBlocks: objBlocks,
			// Uniform random access has no stride to detect; read-ahead
			// off keeps every GET a demand fetch the row can price.
			PrefetchWorkers: 0,
			// A tiny staging area: at 128-block objects the default 32
			// staged objects would hold the whole 10x working set in
			// DRAM and price the figure's reads at zero.
			StagingObjects: 4,
		})
		if err != nil {
			return nil, err
		}
		mem := pmem.New(2<<20, pmem.NVDIMM, clock, rec)
		c, err := core.Open(mem, tier, core.Options{RingBytes: 4096})
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(o.Seed*1000 + int64(objBlocks)))
		base := store.Stats()
		t0 := clock.Now()
		p := make([]byte, core.BlockSize)
		for i := 0; i < reads; i++ {
			if err := c.Read(uint64(rng.Intn(span)), p); err != nil {
				return nil, err
			}
		}
		elapsed := (clock.Now() - t0).Seconds()
		st := store.Stats()
		p99ms := float64(rec.HistSnapshot(metrics.HistObjGet).Quantile(0.99)) / 1e6
		if err := c.Close(); err != nil {
			return nil, err
		}
		tier.Close()

		gets := st.Gets - base.Gets
		usefulBytes := float64(reads) * core.BlockSize
		amp := float64(st.BytesDown-base.BytesDown) / usefulBytes
		dollarsPerGB := float64(st.CostNano-base.CostNano) / 1e9 / (usefulBytes / (1 << 30))
		objKB := objBlocks * core.BlockSize / 1024
		t.AddRow(objKB, float64(reads)/elapsed, float64(gets)/elapsed, amp, dollarsPerGB, p99ms)
		t.SetMetric(fmt.Sprintf("capacity_reads_per_sec_%dk", objKB), float64(reads)/elapsed)
		t.SetMetric(fmt.Sprintf("capacity_dollars_per_gb_%dk", objKB), dollarsPerGB)
		t.SetMetric(fmt.Sprintf("capacity_get_p99_ms_%dk", objKB), p99ms)
		t.SetMetric(fmt.Sprintf("capacity_read_amp_%dk", objKB), amp)
	}
	t.SetMetric("capacity_span_x_cache", 10)

	t.Note = "uniform random 4KB reads, working set 10x NVM capacity, prefetch off: the capacity-miss regime. Larger objects amortize request floors for sequential IO (see coldstart) but under point reads multiply bytes moved, price per useful GB and GET tail latency — pick ObjectBlocks for the read pattern, not the upload pipeline"
	return t, nil
}
