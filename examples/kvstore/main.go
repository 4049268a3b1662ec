// KVStore: a tiny crash-consistent key-value store built *directly* on
// Tinca's transactional primitives — no file system, no journal of its
// own. It demonstrates the paper's thesis from a downstream-user angle:
// if the cache gives you multi-block atomic commits (Section 4.1), the
// storage engine above shrinks to a hash layout plus Begin/Write/Commit.
//
// Layout: the store hashes each key to a bucket block; a bucket holds
// fixed-size slots of (keylen, key, vallen, value). A Put rewrites the
// bucket block inside one Tinca transaction — multi-key Puts are atomic
// across buckets because a transaction may span blocks.
//
// Run with: go run ./examples/kvstore
package main

import (
	"encoding/binary"
	"fmt"
	"log"

	"tinca"
	"tinca/internal/sim"
)

const (
	buckets   = 1024
	slotSize  = 256
	slotsPerB = tinca.BlockSize / slotSize
)

type kv struct {
	cache *tinca.Cache
}

func (s *kv) bucket(key string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return h % buckets
}

// PutAll atomically writes a batch of key-value pairs: after a crash,
// either all of them are visible or none.
func (s *kv) PutAll(pairs map[string]string) error {
	txn := s.cache.Begin()
	touched := map[uint64][]byte{}
	for key, val := range pairs {
		b := s.bucket(key)
		blk, ok := touched[b]
		if !ok {
			blk = make([]byte, tinca.BlockSize)
			if err := s.cache.Read(b, blk); err != nil {
				return err
			}
			touched[b] = blk
		}
		if err := putInBucket(blk, key, val); err != nil {
			return err
		}
	}
	for b, blk := range touched {
		txn.Write(b, blk)
	}
	return txn.Commit()
}

// Get returns the value for key, or ok=false.
func (s *kv) Get(key string) (string, bool, error) {
	blk := make([]byte, tinca.BlockSize)
	if err := s.cache.Read(s.bucket(key), blk); err != nil {
		return "", false, err
	}
	for i := 0; i < slotsPerB; i++ {
		slot := blk[i*slotSize : (i+1)*slotSize]
		klen := int(binary.LittleEndian.Uint16(slot[0:2]))
		if klen == 0 || klen > slotSize/2 {
			continue
		}
		if string(slot[4:4+klen]) == key {
			vlen := int(binary.LittleEndian.Uint16(slot[2:4]))
			return string(slot[4+klen : 4+klen+vlen]), true, nil
		}
	}
	return "", false, nil
}

func putInBucket(blk []byte, key, val string) error {
	if 4+len(key)+len(val) > slotSize {
		return fmt.Errorf("kv: entry too large")
	}
	free := -1
	for i := 0; i < slotsPerB; i++ {
		slot := blk[i*slotSize : (i+1)*slotSize]
		klen := int(binary.LittleEndian.Uint16(slot[0:2]))
		if klen == 0 {
			if free < 0 {
				free = i
			}
			continue
		}
		if klen <= slotSize/2 && string(slot[4:4+klen]) == key {
			free = i // overwrite in place
			break
		}
	}
	if free < 0 {
		return fmt.Errorf("kv: bucket full")
	}
	slot := blk[free*slotSize : (free+1)*slotSize]
	for i := range slot {
		slot[i] = 0
	}
	binary.LittleEndian.PutUint16(slot[0:2], uint16(len(key)))
	binary.LittleEndian.PutUint16(slot[2:4], uint16(len(val)))
	copy(slot[4:], key)
	copy(slot[4+len(key):], val)
	return nil
}

func main() {
	clock := tinca.NewClock()
	rec := tinca.NewRecorder()
	mem := tinca.NewNVM(16<<20, tinca.PCM, clock, rec)
	disk := tinca.NewDisk(1<<16, tinca.SSD, clock, rec)
	cache, err := tinca.OpenCache(mem, disk, tinca.CacheOptions{})
	if err != nil {
		log.Fatal(err)
	}
	store := &kv{cache: cache}

	// An atomic multi-key update: an account transfer that must never be
	// half-applied.
	if err := store.PutAll(map[string]string{
		"account:alice": "90",
		"account:bob":   "110",
		"tx:0001":       "alice->bob:10",
	}); err != nil {
		log.Fatal(err)
	}
	v, _, _ := store.Get("account:alice")
	fmt.Printf("alice=%s after transfer (committed in one Tinca transaction)\n", v)

	// Power failure *during* the next transfer: arm a crash mid-commit
	// (the group-commit seal amortizes pointer persists, so the whole
	// commit takes fewer NVM operations than it used to — arm early
	// enough to land inside the persist sequence).
	mem.ArmCrash(12)
	crashed, _ := tinca.CatchCrash(func() {
		_ = store.PutAll(map[string]string{
			"account:alice": "0",
			"account:bob":   "200",
			"tx:0002":       "alice->bob:90",
		})
	})
	if !crashed {
		log.Fatal("the armed crash landed after the commit: re-tune ArmCrash")
	}
	mem.Crash(sim.NewRand(1), 0.5)
	fmt.Printf("crash injected mid-commit: %v\n", crashed)

	// Reboot: recovery restores an all-or-nothing state.
	cache2, err := tinca.OpenCache(mem, disk, tinca.CacheOptions{})
	if err != nil {
		log.Fatal(err)
	}
	if err := cache2.CheckInvariants(); err != nil {
		log.Fatal(err)
	}
	store2 := &kv{cache: cache2}
	alice, _, _ := store2.Get("account:alice")
	bob, _, _ := store2.Get("account:bob")
	_, tx2Applied, _ := store2.Get("tx:0002")
	fmt.Printf("after recovery: alice=%s bob=%s tx:0002 applied=%v\n", alice, bob, tx2Applied)
	if (alice == "90" && bob == "110" && !tx2Applied) || (alice == "0" && bob == "200" && tx2Applied) {
		fmt.Println("transfer was atomic: both balances and the tx record agree")
	} else {
		log.Fatalf("TORN transfer: alice=%s bob=%s tx=%v", alice, bob, tx2Applied)
	}
}
