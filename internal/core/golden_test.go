package core

import (
	"fmt"
	"hash/fnv"
	"testing"

	"tinca/internal/blockdev"
	"tinca/internal/metrics"
	"tinca/internal/pmem"
	"tinca/internal/sim"
)

// golden is everything a scripted run leaves behind that the on-NVM format,
// the persist order or the simulated charges could move: the FNV-64a of the
// persistence domain, the final simulated clock, the number of persist
// operations (= crash boundaries) and the flush/fence counters.
type golden struct {
	image                    uint64
	clock, ops, flush, fence int64
}

// goldenRun drives one scripted workload on a fresh 4MB NVDIMM and returns
// what it left behind. crashAt lists persist-op countdowns: for each, a
// fresh device runs the workload until the armed crash fires, loses half
// its unflushed lines and recovers; the digests of all legs fold into one.
func goldenRun(t *testing.T, opts Options, commits int, crashAt []int64) golden {
	t.Helper()
	h := fnv.New64a()
	var g golden
	leg := func(k int64) {
		clock := sim.NewClock()
		rec := metrics.NewRecorder()
		mem := pmem.New(4<<20, pmem.NVDIMM, clock, rec)
		disk := blockdev.New(1<<16, blockdev.Null, clock, rec)
		c, err := Open(mem, disk, opts)
		if err != nil {
			t.Fatal(err)
		}
		workload := func() {
			for i := 0; i < commits; i++ {
				fill := byte('A' + i%26)
				blocks := []uint64{uint64(i), uint64(i + 7), uint64(i + 19)}
				if err := c.CommitBlocks(blocks, [][]byte{blockOf(fill), blockOf(fill), blockOf(fill)}); err != nil {
					panic(fmt.Sprintf("commit %d: %v", i, err))
				}
			}
		}
		if k < 0 {
			workload()
		} else {
			mem.ArmCrash(k)
			if crashed, _ := pmem.CatchCrash(workload); !crashed {
				t.Fatalf("crash armed at persist op %d never fired", k)
			}
			mem.Crash(sim.NewRand(9000+k), 0.5)
			if c, err = Open(mem, disk, opts); err != nil {
				t.Fatalf("recovery after crash at %d: %v", k, err)
			}
			if err := c.CheckInvariants(); err != nil {
				t.Fatalf("after crash at %d: %v", k, err)
			}
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		h.Write(mem.SnapshotPersist())
		g.clock += int64(clock.Now())
		g.ops += mem.PersistOps()
		g.flush += rec.Get(metrics.NVMCLFlush)
		g.fence += rec.Get(metrics.NVMSFence)
	}
	if len(crashAt) == 0 {
		leg(-1)
	}
	for _, k := range crashAt {
		leg(k)
	}
	g.image = h.Sum64()
	return g
}

// TestCommitLogGoldenImage pins the on-NVM format, the persist order and
// the simulated charges of the commit log for CommitRings unset, 1 and 4,
// with and without the ablation cost hooks. The default-seal expectations
// were recorded at the last commit that still had a separate single-ring
// seal (group.go) beside the multi-ring one; any drift in record format,
// flush order, fence count or charge fails by name. The unset and =1 rows
// must also agree with each other: CommitRings=1 is the paper's single
// ring, byte for byte.
func TestCommitLogGoldenImage(t *testing.T) {
	scenarios := []struct {
		name    string
		opts    Options
		commits int
		crashAt []int64
	}{
		// Twelve three-block commits on a ring nothing wraps.
		{"plain", Options{RingBytes: 4096}, 12, nil},
		// A 512-byte ring region (64 8B slots, or 8 16B records per ring at
		// R=4) wrapped several times.
		{"wrapped", Options{RingBytes: 512}, 40, nil},
		// The checkpoint writer firing at every commit point.
		{"ckpt", Options{RingBytes: 4096, CheckpointIntervalNS: 1}, 12, nil},
		// Crash mid-run and recover, at boundaries spread over the seal
		// phases: recovery's own persists and charges are pinned too.
		{"recover", Options{RingBytes: 4096}, 12, []int64{9, 26, 43, 60, 77, 94}},
		{"recover-ckpt", Options{RingBytes: 4096, CheckpointIntervalNS: 1}, 12, []int64{30, 71, 112, 153}},
		// The ablation cost hooks, committed and crashed. Write hits start
		// at the eighth commit, so the crash points reach past it.
		{"dw-plain", Options{RingBytes: 4096, Ablation: AblationDoubleWrite}, 12, nil},
		{"dw-recover", Options{RingBytes: 4096, Ablation: AblationDoubleWrite}, 12, []int64{9, 94, 180, 260, 330, 400}},
		{"ubj-plain", Options{RingBytes: 4096, Ablation: AblationUBJ}, 12, nil},
		{"ubj-recover", Options{RingBytes: 4096, Ablation: AblationUBJ}, 12, []int64{9, 94, 180, 260, 330, 400}},
	}
	// Clocks and counts recorded at the parent of the commit that deleted
	// group.go; "single" is both CommitRings unset and CommitRings=1. Image
	// hashes re-recorded for the 8-byte-tearing entry layout (entry.go), and
	// three crash rows with them: in recover-ckpt/rings=4 (leg 71),
	// dw-recover/single (leg 94) and ubj-recover/single (leg 180) the crash
	// persists only word 1 of a write-miss install, and recovery's zeroing of
	// that slot adds one 16B persist (3 ops, 1 flush, 1 fence, 160 ns).
	// Image hashes re-recorded again when the striped free-block caches
	// became one LIFO pool: blocks land in different NVM data blocks, and
	// no clock, op, flush or fence count moved.
	want := map[string]golden{
		"plain/single":         {0x20815661f1dca988, 383160, 518, 2471, 107},
		"plain/rings=4":        {0x98c43af12bb19b38, 387970, 609, 2501, 137},
		"wrapped/single":       {0x20185107fe9b8865, 1122080, 1554, 8183, 303},
		"wrapped/rings=4":      {0xb08e5c8b1c5a44ec, 1135850, 1813, 8269, 389},
		"ckpt/single":          {0x95e9d31bb7ff2604, 571680, 801, 2768, 200},
		"ckpt/rings=4":         {0xa0366ee5bf95eb0, 577970, 895, 2811, 231},
		"recover/single":       {0xea1cbce5b8c22793, 758400, 534, 2460, 114},
		"recover/rings=4":      {0xaba6907656eb3f3, 701750, 624, 2170, 147},
		"recover-ckpt/single":  {0x18affbe4bf1c7bdb, 638930, 607, 2623, 145},
		"recover-ckpt/rings=4": {0x1611e523400c3c09, 598470, 686, 2332, 175},
		// Recorded when the ablations became cost hooks on the seal.
		"dw-plain/single":     {0x4d6b843bd2040f1c, 636600, 590, 4775, 107},
		"dw-plain/rings=4":    {0xf2b41ee640ebf68c, 641410, 681, 4805, 137},
		"dw-recover/single":   {0x944a6749b0093f40, 2205760, 1660, 13701, 302},
		"dw-recover/rings=4":  {0x61b3fe35ee142774, 1975620, 1756, 11827, 361},
		"ubj-plain/single":    {0xe6b8429b9a97bf1c, 434360, 528, 2791, 107},
		"ubj-plain/rings=4":   {0xce4e4de3249fa68c, 439170, 619, 2821, 137},
		"ubj-recover/single":  {0x10fcee259ceb888f, 1741190, 1723, 8793, 354},
		"ubj-recover/rings=4": {0xc9888577ffd6eba7, 1559030, 1789, 7602, 403},
	}
	for _, sc := range scenarios {
		for _, rings := range []int{0, 1, 4} {
			key := sc.name + "/single"
			if rings > 1 {
				key = fmt.Sprintf("%s/rings=%d", sc.name, rings)
			}
			t.Run(fmt.Sprintf("%s/rings=%d", sc.name, rings), func(t *testing.T) {
				opts := sc.opts
				opts.CommitRings = rings
				got := goldenRun(t, opts, sc.commits, sc.crashAt)
				if got != want[key] {
					t.Errorf("drift from the recorded image:\n got  %q: {%#x, %d, %d, %d, %d},\n want %+v",
						key, got.image, got.clock, got.ops, got.flush, got.fence, want[key])
				}
			})
		}
	}
}
