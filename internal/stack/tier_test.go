package stack

import (
	"bytes"
	"fmt"
	"testing"

	"tinca/internal/blockdev"
	"tinca/internal/objstore"
	"tinca/internal/pmem"
)

func l3Config() Config {
	cfg := Config{
		Kind:        Tinca,
		NVMBytes:    2 << 20, // small NVM so evictions reach the tier
		NVMProfile:  pmem.NVDIMM,
		DiskProfile: blockdev.Null,
		FSBlocks:    4096,
		L3:          true,
		l3Profile:   objstore.NullStore,
		L3L2Blocks:  512, // far below the span: real tiering pressure
	}
	cfg.EvictLowWater = 16
	cfg.JournalBlocks = 256
	return cfg
}

func TestStackL3RoundTrip(t *testing.T) {
	s, err := New(l3Config())
	if err != nil {
		t.Fatal(err)
	}
	if s.Tier == nil || s.Store == nil {
		t.Fatal("L3 stack missing Tier/Store")
	}
	var want [][]byte
	for i := 0; i < 30; i++ {
		p := bytes.Repeat([]byte{byte(i + 1)}, 20000)
		want = append(want, p)
		if err := s.FS.WriteFile(fmt.Sprintf("/f%d", i), p); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 30; i++ {
		got, err := s.FS.ReadFile(fmt.Sprintf("/f%d", i))
		if err != nil || !bytes.Equal(got, want[i]) {
			t.Fatalf("file %d corrupted: %v", i, err)
		}
	}
	st := s.Stats()
	if st.Tier.DataSlots == 0 {
		t.Fatal("tier stats not populated")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Close drains: everything dirty must have reached the store.
	if s.Tier != nil {
		t.Fatal("Close left Tier live")
	}
}

func TestStackL3CrashRemount(t *testing.T) {
	s, err := New(l3Config())
	if err != nil {
		t.Fatal(err)
	}
	var want [][]byte
	for i := 0; i < 40; i++ {
		p := bytes.Repeat([]byte{byte(i + 1)}, 12000)
		want = append(want, p)
		if err := s.FS.WriteFile(fmt.Sprintf("/f%d", i), p); err != nil {
			t.Fatal(err)
		}
	}
	s.Crash(nil, 0)
	if err := s.Remount(); err != nil {
		t.Fatalf("remount: %v", err)
	}
	if s.Tier == nil {
		t.Fatal("remount did not re-attach the tier")
	}
	if err := s.FS.Check(); err != nil {
		t.Fatalf("fsck: %v", err)
	}
	for i := 0; i < 40; i++ {
		got, err := s.FS.ReadFile(fmt.Sprintf("/f%d", i))
		if err != nil || !bytes.Equal(got, want[i]) {
			t.Fatalf("file %d lost across crash: %v", i, err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// Two crashes back to back (the second mid-upload-backlog) must still
// recover everything: dirty L2 blocks ride the persistent slot map.
func TestStackL3DoubleCrash(t *testing.T) {
	s, err := New(l3Config())
	if err != nil {
		t.Fatal(err)
	}
	p1 := bytes.Repeat([]byte{0xa1}, 30000)
	if err := s.FS.WriteFile("/a", p1); err != nil {
		t.Fatal(err)
	}
	s.Crash(nil, 0)
	if err := s.Remount(); err != nil {
		t.Fatal(err)
	}
	p2 := bytes.Repeat([]byte{0xb2}, 30000)
	if err := s.FS.WriteFile("/b", p2); err != nil {
		t.Fatal(err)
	}
	s.Crash(nil, 0)
	if err := s.Remount(); err != nil {
		t.Fatal(err)
	}
	for _, f := range []struct {
		path string
		want []byte
	}{{"/a", p1}, {"/b", p2}} {
		got, err := s.FS.ReadFile(f.path)
		if err != nil || !bytes.Equal(got, f.want) {
			t.Fatalf("%s lost: %v", f.path, err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestStackL3ConfigGating(t *testing.T) {
	cfg := smallConfig(Classic)
	cfg.L3 = true
	if _, err := New(cfg); err == nil {
		t.Fatal("Classic + L3 accepted")
	}
	cfg = smallConfig(Tinca)
	cfg.L3L2Blocks = 512 // without L3
	if _, err := New(cfg); err == nil {
		t.Fatal("L3L2Blocks without L3 accepted")
	}
}
