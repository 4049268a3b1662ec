// Fileserver: the paper's motivating macro-workload (a Filebench-style
// file server, R/W 1/2, 16KB requests) run head-to-head on the Tinca stack
// and on the Classic stack (Ext4-style journalling over a Flashcache-style
// NVM cache), printing the throughput and write-amplification comparison
// of Figures 3 and 11.
//
// Run with: go run ./examples/fileserver
package main

import (
	"fmt"
	"log"

	"tinca"
)

func main() {
	fmt.Println("fileserver workload: 2000 file operations, 128 files, PCM cache over SSD")
	fmt.Println()
	fmt.Printf("%-18s %12s %14s %14s %12s\n", "system", "OPs/s(sim)", "clflush/op", "disk blks/op", "NVM MB")

	var tincaOps, classicOps float64
	for _, kind := range []struct {
		name string
		k    tinca.StackConfig
	}{
		{"Tinca", tinca.StackConfig{Kind: tinca.KindTinca}},
		{"Classic", tinca.StackConfig{Kind: tinca.KindClassic}},
	} {
		cfg := kind.k
		cfg.NVMBytes = 16 << 20
		cfg.FSBlocks = 16384
		cfg.GroupCommitBlocks = 32
		cfg.JournalBlocks = 512
		sys, err := tinca.NewStack(cfg)
		if err != nil {
			log.Fatal(err)
		}
		start := sys.Stats().Device
		t0 := sys.Clock.Now()
		cnt, err := tinca.RunFilebench(sys.FS, tinca.FilebenchConfig{
			Profile: tinca.Fileserver, Files: 128, FileBytes: 32 << 10,
			IOBytes: 16 << 10, Ops: 2000, Seed: 7,
		})
		if err != nil {
			log.Fatal(err)
		}
		d := sys.Stats().Device.Sub(start)
		wall := (sys.Clock.Now() - t0).Seconds()
		ops := float64(cnt.FileOps) / wall
		fmt.Printf("%-18s %12.0f %14.1f %14.2f %12.1f\n",
			kind.name, ops,
			float64(d.CLFlushes)/float64(cnt.FileOps),
			float64(d.DiskBlocksWrite)/float64(cnt.FileOps),
			float64(d.NVMBytesWritten)/(1<<20))
		if kind.name == "Tinca" {
			reportZeroCopyScan(sys)
		}
		if kind.name == "Tinca" {
			tincaOps = ops
		} else {
			classicOps = ops
		}
		if err := sys.FS.Check(); err != nil {
			log.Fatal("fsck: ", err)
		}
	}
	fmt.Println()
	fmt.Printf("Tinca speedup: %.2fx (paper reports 1.8x for fileserver; shape, not absolute numbers)\n",
		tincaOps/classicOps)
}

// reportZeroCopyScan re-reads the fileserver's working set through the
// zero-copy read API: each ReadAtView of committed data pins the NVM
// cache block and hands back a window onto it — no per-read block copy,
// no allocation.
func reportZeroCopyScan(sys *tinca.Stack) {
	names, err := sys.FS.ReadDir("/filebench")
	if err != nil {
		log.Fatal(err)
	}
	var bytes, views, zero int
	for _, n := range names {
		path := "/filebench/" + n
		info, err := sys.FS.Stat(path)
		if err != nil {
			log.Fatal(err)
		}
		for off := uint64(0); off < info.Size; {
			v, err := sys.FS.ReadAtView(path, off, 16<<10)
			if err != nil {
				log.Fatal(err)
			}
			bytes += v.Len()
			views++
			if v.ZeroCopy() {
				zero++
			}
			off += uint64(v.Len())
			if err := v.Close(); err != nil {
				log.Fatal(err)
			}
		}
	}
	st := sys.Stats().Cache
	fmt.Printf("  zero-copy scan: %.1f MB in %d views (%d zero-copy), %d deferred frees, %d views open\n",
		float64(bytes)/(1<<20), views, zero, st.ViewDeferredFrees, st.OpenViews)
}
