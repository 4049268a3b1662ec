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
// operations (= crash boundaries) and the flush/fence/atomic16 counters.
type golden struct {
	image                              uint64
	clock, ops, flush, fence, atomic16 int64
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
		g.atomic16 += rec.Get(metrics.NVMAtomic16)
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
	// Recorded at the parent of the commit that deleted group.go; "single" is
	// both CommitRings unset and CommitRings=1.
	want := map[string]golden{
		"plain/single":         {0x239b4804922644f2, 383160, 518, 2471, 107, 103},
		"plain/rings=4":        {0x90c23a75a8ce81c2, 387970, 609, 2501, 137, 139},
		"wrapped/single":       {0xa0b31ccc1485db80, 1122080, 1554, 8183, 303, 299},
		"wrapped/rings=4":      {0x13d82d1204daee31, 1135850, 1813, 8269, 389, 419},
		"ckpt/single":          {0x3fd013e70c179b13, 571680, 801, 2768, 200, 103},
		"ckpt/rings=4":         {0xe8efa85bff14260e, 577970, 895, 2811, 231, 139},
		"recover/single":       {0xd03f51b216e72fb6, 758400, 534, 2460, 114, 87},
		"recover/rings=4":      {0xd48a233b02e6958f, 701750, 624, 2170, 147, 98},
		"recover-ckpt/single":  {0x7548dfdf90b17445, 638930, 607, 2623, 145, 68},
		"recover-ckpt/rings=4": {0x58a118fcbc2a85ba, 598310, 683, 2331, 174, 84},
		// Recorded when the ablations became cost hooks on the seal.
		"dw-plain/single":     {0xd82f04141e4d2ab4, 636600, 590, 4775, 107, 103},
		"dw-plain/rings=4":    {0x2e11b7a96558c2c4, 641410, 681, 4805, 137, 139},
		"dw-recover/single":   {0x1c2be833c3f7a50b, 2205600, 1657, 13700, 301, 279},
		"dw-recover/rings=4":  {0x27aee0ab875289a2, 1975620, 1756, 11827, 361, 329},
		"ubj-plain/single":    {0xd1cf6fa788a32ab4, 434360, 528, 2791, 107, 103},
		"ubj-plain/rings=4":   {0x25325d9d6aec2c4, 439170, 619, 2821, 137, 139},
		"ubj-recover/single":  {0x3397950b7a668548, 1741030, 1720, 8792, 353, 332},
		"ubj-recover/rings=4": {0xa00aa5541d6c18cc, 1559030, 1789, 7602, 403, 382},
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
					t.Errorf("drift from the recorded image:\n got  %q: {%#x, %d, %d, %d, %d, %d},\n want %+v",
						key, got.image, got.clock, got.ops, got.flush, got.fence, got.atomic16, want[key])
				}
			})
		}
	}
}
