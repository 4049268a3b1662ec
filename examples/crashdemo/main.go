// Crashdemo: a guided tour of Tinca's crash consistency (paper Sections
// 4.3-4.5). It commits a multi-block transaction, pulls the power at an
// operation boundary *inside* the commit protocol, materializes an
// adversarial crash image (a random subset of un-flushed cache lines
// persists anyway), recovers, and shows the transaction was atomic:
// either every block reads the new version, or every block reads the old
// one — never a mix.
//
// Run with: go run ./examples/crashdemo
package main

import (
	"fmt"
	"log"

	"tinca"
	"tinca/internal/sim"
)

func main() {
	rng := sim.NewRand(2026)

	// The five-block commit below is 50 NVM operations long; each crash
	// point lands in a different seal phase: data, entries, ring records,
	// role switch, Tail flip.
	for _, crashAfter := range []int64{3, 18, 30, 40, 48} {
		clock := tinca.NewClock()
		rec := tinca.NewRecorder()
		mem := tinca.NewNVM(4<<20, tinca.PCM, clock, rec)
		disk := tinca.NewDisk(1<<16, tinca.SSD, clock, rec)
		cache, err := tinca.OpenCache(mem, disk, tinca.CacheOptions{})
		if err != nil {
			log.Fatal(err)
		}

		// Baseline: blocks 0..4 hold version 'A', committed and durable.
		setup := cache.Begin()
		for blk := uint64(0); blk < 5; blk++ {
			setup.Write(blk, fill('A'))
		}
		if err := setup.Commit(); err != nil {
			log.Fatal(err)
		}

		// Attempt to move all five blocks to version 'B' in one
		// transaction, but lose power after crashAfter NVM operations.
		mem.ArmCrash(crashAfter)
		victim := cache.Begin()
		for blk := uint64(0); blk < 5; blk++ {
			victim.Write(blk, fill('B'))
		}
		crashed, _ := tinca.CatchCrash(func() {
			if err := victim.Commit(); err != nil {
				log.Fatal(err)
			}
		})
		if !crashed {
			log.Fatalf("crash point %d landed after the commit: re-tune the crash points", crashAfter)
		}
		mem.Crash(rng, 0.5) // power failure with random line evictions

		// Reboot: Open runs the recovery algorithm of Section 4.5.
		recovered, err := tinca.OpenCache(mem, disk, tinca.CacheOptions{})
		if err != nil {
			log.Fatal("recovery: ", err)
		}
		if err := recovered.CheckInvariants(); err != nil {
			log.Fatal("invariants: ", err)
		}

		versions := ""
		buf := make([]byte, tinca.BlockSize)
		for blk := uint64(0); blk < 5; blk++ {
			if err := recovered.Read(blk, buf); err != nil {
				log.Fatal(err)
			}
			versions += string(buf[0])
		}
		atomic := versions == "AAAAA" || versions == "BBBBB"
		fmt.Printf("crash after %3d NVM ops (crashed=%-5v): blocks read %q  -> atomic: %v\n",
			crashAfter, crashed, versions, atomic)
		if !atomic {
			log.Fatal("TORN TRANSACTION — crash consistency violated")
		}
	}

	fmt.Println("\nEvery crash point left the transaction all-or-nothing; recovery was clean each time.")
	fmt.Println("(Run cmd/tincacrash for hundreds of randomized trials over the full stack.)")
}

func fill(b byte) []byte {
	p := make([]byte, tinca.BlockSize)
	for i := range p {
		p[i] = b
	}
	return p
}
