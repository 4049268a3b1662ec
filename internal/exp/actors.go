package exp

import (
	"errors"
	"fmt"
	"runtime"
	"sync"

	"tinca/internal/blockdev"
	"tinca/internal/core"
	"tinca/internal/metrics"
	"tinca/internal/pmem"
	"tinca/internal/sim"
)

// runActors runs actor(0) … actor(n-1) concurrently and returns their
// joined errors. It is the only fan-out in this package, and it pins the
// process to one P while the actors run.
//
// One P is what makes the concurrency figures measure the code rather
// than the host. The device overlap model (sim.Window) discounts a
// request by the actors that reached the device with it, and its yield
// lines them up only when they share a P: on several Ps they run truly in
// parallel and seldom meet inside a window, so an 8-actor speedup read
// anywhere from 1.0x to 7.2x from run to run on a 2-CPU host, and 7.2x
// every run on one P. An actor blocked on a lock is not runnable on any P
// count, so a serialized path still pays full price.
func runActors(n int, actor func(i int) error) error {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = actor(i)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// commitResult is what one commitRun measured.
type commitResult struct {
	perSec float64 // acknowledged commits per simulated second
	stats  core.CacheStats
	rec    *metrics.Recorder
}

// commitRun is the committer rig of the group-commit, writer-scaling and
// commit-phase figures: a cache on 16 MB of NVM with profile prof over an
// instant disk, and workers actors that each commit total/workers
// transactions rewriting their own block set blocks(w).
func commitRun(prof pmem.Profile, opts core.Options, workers, total int, blocks func(w int) []uint64) (commitResult, error) {
	clock := sim.NewClock()
	rec := metrics.NewRecorder()
	mem := pmem.New(16<<20, prof, clock, rec)
	disk := blockdev.New(1<<16, blockdev.Null, clock, rec)
	c, err := core.Open(mem, disk, opts)
	if err != nil {
		return commitResult{}, err
	}
	block := make([]byte, core.BlockSize)
	per := total / workers
	t0 := clock.Now()
	err = runActors(workers, func(w int) error {
		set := blocks(w)
		for range per {
			txn := c.Begin()
			for _, b := range set {
				txn.Write(b, block)
			}
			if err := txn.Commit(); err != nil {
				return fmt.Errorf("committer %d: %w", w, err)
			}
		}
		return nil
	})
	elapsed := (clock.Now() - t0).Seconds()
	r := commitResult{perSec: float64(per*workers) / elapsed, stats: c.Stats(), rec: rec}
	return r, errors.Join(err, c.Close())
}
