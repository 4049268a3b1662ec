package stack

import (
	"strings"
	"testing"

	"tinca/internal/core"
)

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name    string
		cfg     Config
		wantErr string // substring of the error, "" for valid
	}{
		{"zero value", Config{}, ""},
		{"classic", Config{Kind: Classic}, ""},
		{"unknown kind", Config{Kind: Kind(42)}, "unknown kind"},
		{"negative NVM", Config{NVMBytes: -1}, "negative"},
		{"tiny NVM", Config{NVMBytes: 4096}, "too small"},
		{"tinca knobs delegate", Config{Kind: Tinca, Options: core.Options{RingBytes: 65}}, "cache line"},
		{"tinca group commit", Config{Kind: Tinca, Options: core.Options{GroupCommit: core.GroupCommit{MaxBatch: 4}}}, ""},
		{"tinca bad group commit", Config{Kind: Tinca, Options: core.Options{GroupCommit: core.GroupCommit{MaxBatch: -2}}}, "MaxBatch"},
		{"tinca evictor", Config{Kind: Tinca, Options: core.Options{EvictLowWater: 8}}, ""},
		{"classic evictor", Config{Kind: Classic, Options: core.Options{EvictLowWater: 8}}, "only to the Tinca kind"},
		{"unknown journal mode", Config{JournalMode: JournalMode(9)}, "journal mode"},
		{"checkpoint frac high", Config{CheckpointFrac: 1.5}, "CheckpointFrac"},
		{"checkpoint frac negative", Config{CheckpointFrac: -0.1}, "CheckpointFrac"},
		{"negative fs group commit", Config{GroupCommitBlocks: -1}, "GroupCommitBlocks"},
		{"negative fs interval", Config{GroupCommitIntervalNS: -1}, "GroupCommitIntervalNS"},
		{"negative page cache", Config{PageCacheBlocks: -1}, "PageCacheBlocks"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("Validate() = nil, want error containing %q", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Validate() = %q, want substring %q", err, tc.wantErr)
			}
		})
	}
}

// New must reject an invalid configuration instead of clamping it.
func TestNewValidatesConfig(t *testing.T) {
	if _, err := New(Config{Kind: Kind(42)}); err == nil {
		t.Fatal("New accepted an unknown kind")
	}
	if _, err := New(Config{Kind: Tinca, Options: core.Options{EvictLowWater: -1}}); err == nil {
		t.Fatal("New accepted a negative low-water mark")
	}
}
