package core

import (
	"tinca/internal/bufpool"
	"tinca/internal/flight"
	"tinca/internal/metrics"
)

// The destager moves disk write-back off the commit critical path. The
// cache is write-back by design (Section 4.6): committed blocks sit dirty
// in NVM and historically reached the disk only when evicted — a
// synchronous disk write on the eviction (and thus allocation) path. With
// DestageDepth > 0 a background goroutine drains a bounded queue of
// freshly committed blocks and writes them back early, so evictions find
// clean victims; in write-through mode the same queue carries the
// mandatory propagation, with the committer blocking when the queue is
// full (backpressure) instead of dropping.
//
// Crash consistency never depends on the destager: a destage is exactly
// an early eviction write-back, and the NVM copy remains authoritative
// until the entry's modified bit is cleared — which happens only after
// the disk write returns.

// destageItem names one committed block to write back. slot guards
// against ABA: if the block was evicted and re-fetched, the slot check
// under the shard lock makes the stale item a no-op (a fresh commit
// enqueues its own item).
type destageItem struct {
	no   uint64
	slot int32
}

// destageEnqueue hands a committed block to the destager. In
// write-through mode the send blocks when the queue is full — commit
// throughput degrades to disk throughput, which is the backpressure
// write-through semantics require. In write-back mode cleaning is merely
// opportunistic, so a full queue drops the request instead of stalling
// the committer.
func (c *Cache) destageEnqueue(no uint64, slot int32) {
	c.destagePending.Add(1)
	c.rec.Inc(metrics.DestageQueueDepth)
	item := destageItem{no: no, slot: slot}
	if c.opts.WriteThrough {
		c.destageCh <- item
		return
	}
	select {
	case c.destageCh <- item:
	default:
		c.rec.Add(metrics.DestageQueueDepth, -1)
		c.rec.Inc(metrics.DestageDropped)
		c.destageWakeMu.Lock()
		c.destagePending.Add(-1)
		c.destageWake.Broadcast()
		c.destageWakeMu.Unlock()
	}
}

// destager is one background drain worker; Options.DestageWorkers of them
// share the queue. Each item is processed under the block's shard lock
// only — a destager never takes a ring lock, so commits and destages
// overlap freely, and with several workers the disk write-backs of independent
// blocks overlap each other (the wb flag in writeBack keeps same-block
// write-backs ordered). An injected crash during the entry update poisons
// the cache and the loop degrades to draining (so a blocked write-through
// committer is released) until the channel closes.
func (c *Cache) destager() {
	defer c.destageWG.Done()
	buf := bufpool.Get()
	defer bufpool.Put(buf)
	for item := range c.destageCh {
		if c.poisoned.Load() == nil {
			c.destageOne(item, buf)
		}
		c.rec.Add(metrics.DestageQueueDepth, -1)
		// Decrement and broadcast under the drain mutex so a drainer
		// cannot check pending and sleep between the two (lost wakeup).
		c.destageWakeMu.Lock()
		c.destagePending.Add(-1)
		c.destageWake.Broadcast()
		c.destageWakeMu.Unlock()
	}
}

// destageOne writes one queued block back to disk and marks it clean,
// skipping items invalidated since they were queued (evicted, re-sealed,
// or already cleaned) — writeBack performs all of that validation and the
// disk write happens outside the shard lock. Panics from the simulated
// NVM (injected crashes) poison the cache instead of killing the process.
func (c *Cache) destageOne(item destageItem, buf []byte) {
	defer func() {
		if r := recover(); r != nil {
			c.poison(r)
		}
	}()
	var t0 int64
	if c.obs != nil {
		t0 = c.obs.now()
	}
	// The disk write completes before the modified bit clears; a crash
	// between the two leaves a dirty entry over an already-current disk
	// block, which is merely a redundant future write-back.
	if c.writeBack(c.shardOf(item.no), item.no, item.slot, buf) {
		c.rec.Inc(metrics.DestageDone)
		c.flEmit(flight.EvDestage, 0, 0, item.no, 0)
		if c.obs != nil {
			c.obs.phase(c.obs.destage, item.no, spanDestage, t0, c.obs.gid())
		}
	}
}

// DrainDestage blocks until every queued destage has been processed (or
// the cache has been poisoned by a simulated crash). It is a no-op when
// the destager is disabled. FlushAll drains first so the subsequent sweep
// sees final modified bits.
func (c *Cache) DrainDestage() {
	if c.destageCh == nil {
		return
	}
	c.destageWakeMu.Lock()
	defer c.destageWakeMu.Unlock()
	for c.destagePending.Load() > 0 {
		c.destageWake.Wait()
	}
}
