package core

import (
	"fmt"
	"sync"
	"testing"
)

// TestAllocatorPairsUnderContention has 8 goroutines pop (block, slot)
// pairs, hold a few, and free them slot before block, on a pool smaller
// than what they would all like to hold. popSlot must never panic (a
// successful popBlock guarantees a slot), and afterwards the pool must
// hold every block and every slot exactly once. Run it under -race and
// -tags tincadebug, where the double-free bits check every push and pop.
func TestAllocatorPairsUnderContention(t *testing.T) {
	const (
		capacity = 16
		workers  = 8
		rounds   = 2000
		hold     = 3 // pairs a worker keeps at most before freeing
	)
	var a allocator
	a.init(capacity)
	for i := 0; i < capacity; i++ {
		a.pushSlot(int32(i)) // slot before block, as format does
		a.pushBlock(uint32(i))
	}

	type pair struct {
		b uint32
		s int32
	}
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					errs <- fmt.Errorf("worker %d: %v", g, r)
				}
			}()
			var held []pair
			for i := 0; i < rounds; i++ {
				if b, ok := a.popBlock(); ok {
					held = append(held, pair{b, a.popSlot()})
				}
				if len(held) > hold || (len(held) > 0 && i%3 == g%3) {
					p := held[0]
					held = held[1:]
					a.pushSlot(p.s)
					a.pushBlock(p.b)
				}
			}
			for _, p := range held {
				a.pushSlot(p.s)
				a.pushBlock(p.b)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	blocks, slots := a.snapshot()
	if len(blocks) != capacity || len(slots) != capacity || a.freeBlocks() != capacity {
		t.Fatalf("pool holds %d blocks, %d slots (freeBlocks %d), want %d each",
			len(blocks), len(slots), a.freeBlocks(), capacity)
	}
	var seenB, seenS [capacity]bool
	for _, b := range blocks {
		if seenB[b] {
			t.Fatalf("block %d in the pool twice", b)
		}
		seenB[b] = true
	}
	for _, s := range slots {
		if seenS[s] {
			t.Fatalf("slot %d in the pool twice", s)
		}
		seenS[s] = true
	}
}
