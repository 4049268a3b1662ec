package core

import (
	"strings"
	"testing"

	"tinca/internal/blockdev"
	"tinca/internal/metrics"
	"tinca/internal/pmem"
	"tinca/internal/sim"
)

func TestOptionsValidate(t *testing.T) {
	cases := []struct {
		name    string
		opts    Options
		wantErr string // substring of the error, "" for valid
	}{
		{"zero value", Options{}, ""},
		{"paper default ring", Options{RingBytes: 1 << 20}, ""},
		{"negative ring", Options{RingBytes: -64}, "negative"},
		{"misaligned ring", Options{RingBytes: pmem.LineSize + 1}, "cache line"},
		{"ablation double write", Options{Ablation: AblationDoubleWrite}, ""},
		{"ablation out of range", Options{Ablation: Ablation(99)}, "unknown ablation"},
		{"negative ablation", Options{Ablation: Ablation(-1)}, "unknown ablation"},
		{"group commit knobs", Options{SealWaitNS: 1000}, ""},
		{"negative max wait", Options{SealWaitNS: -1}, "SealWaitNS"},
		{"negative checkpoint interval", Options{CheckpointIntervalNS: -1}, "CheckpointIntervalNS"},
		{"ablation composes", Options{Ablation: AblationUBJ, CommitRings: 4, CheckpointIntervalNS: DefaultCheckpointIntervalNS}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.opts.Validate()
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

// Open must reject invalid options before touching the device.
func TestOpenValidatesOptions(t *testing.T) {
	clock := sim.NewClock()
	rec := metrics.NewRecorder()
	mem := pmem.New(4<<20, pmem.NVDIMM, clock, rec)
	disk := blockdev.New(1<<20, blockdev.Null, clock, rec)
	if _, err := Open(mem, disk, Options{RingBytes: -64}); err == nil {
		t.Fatal("Open accepted a negative ring size")
	}
}
