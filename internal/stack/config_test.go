package stack

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"tinca/internal/classic"
	"tinca/internal/core"
	"tinca/internal/fs"
	"tinca/internal/jbd"
	"tinca/internal/objstore"
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
		{"tinca group commit", Config{Kind: Tinca, Options: core.Options{SealWaitNS: 4000}}, ""},
		{"tinca bad group commit", Config{Kind: Tinca, Options: core.Options{SealWaitNS: -2}}, "SealWaitNS"},
		{"tinca evictor", Config{Kind: Tinca, Options: core.Options{EvictLowWater: 8}}, ""},
		{"classic evictor", Config{Kind: Classic, Options: core.Options{EvictLowWater: 8}}, "only to the Tinca kind"},
		{"unknown journal mode", Config{JournalMode: JournalMode(9)}, "journal mode"},
		{"negative fs group commit", Config{GroupCommitBlocks: -1}, "GroupCommitBlocks"},
		{"negative fs interval", Config{GroupCommitIntervalNS: -1}, "GroupCommitIntervalNS"},
		{"classic ablation", Config{Kind: Classic, Options: core.Options{Ablation: core.AblationUBJ}}, "Ablation applies only to the Tinca kind"},
		{"classic ring", Config{Kind: Classic, Options: core.Options{RingBytes: 64 << 10}}, "RingBytes"},
		{"classic rotate", Config{Kind: Classic, Options: core.Options{RotatePointers: true}}, "RotatePointers"},
		{"classic seal wait", Config{Kind: ClassicNoJournal, Options: core.Options{SealWaitNS: 1000}}, "SealWaitNS"},
		{"classic observe", Config{Kind: Classic, Options: core.Options{Observe: true}}, ""},
		{"tinca ordered", Config{Kind: Tinca, JournalMode: Ordered}, "JournalMode applies only to the Classic kind"},
		{"nojournal ordered", Config{Kind: ClassicNoJournal, JournalMode: Ordered}, "JournalMode"},
		{"classic ordered", Config{Kind: Classic, JournalMode: Ordered}, ""},
		{"tinca no meta updates", Config{Kind: Tinca, NoMetaUpdates: true}, "NoMetaUpdates applies only to the Classic kinds"},
		{"tinca no barriers", Config{Kind: Tinca, NoPersistBarriers: true}, "NoPersistBarriers"},
		{"nojournal no barriers", Config{Kind: ClassicNoJournal, NoPersistBarriers: true}, ""},
		{"negative L3 max dirty", Config{L3: true, L3MaxDirty: -1}, "L3MaxDirty"},
		{"negative L3 upload workers", Config{L3: true, L3UploadWorkers: -1}, "L3UploadWorkers"},
		{"L3 prefetch disabled", Config{L3: true, L3Prefetch: -1}, ""},
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

// TestOptionSurface pins the settable knobs of the stack and of every
// layer it assembles. A knob earns its place with two non-test callers
// that want different values; anything else is a constant, a derived value
// or an unexported test hook. A new knob therefore shows up here as a
// reviewed edit.
func TestOptionSurface(t *testing.T) {
	for _, tc := range []struct {
		typ  reflect.Type
		want []string
	}{
		{reflect.TypeOf(core.Options{}), []string{"RingBytes", "Ablation", "RotatePointers", "SealWaitNS",
			"Observe", "Tracer", "Fault", "SealHook", "EvictLowWater", "FlightRecorder",
			"CheckpointIntervalNS", "CommitRings"}},
		// Own fields only: Config embeds core.Options, pinned above.
		{reflect.TypeOf(Config{}), []string{"Kind", "NVMBytes", "NVMProfile", "DiskProfile", "FSBlocks",
			"L3", "L3L2Blocks", "L3ObjectBlocks", "L3Prefetch", "L3MaxDirty", "L3UploadWorkers",
			"JournalMode", "JournalBlocks", "NoMetaUpdates", "NoPersistBarriers",
			"GroupCommitBlocks", "GroupCommitIntervalNS"}},
		{reflect.TypeOf(fs.Options{}), []string{"GroupCommitBlocks", "GroupCommitIntervalNS", "Clock",
			"OpCostNS", "Rec", "Observe"}},
		{reflect.TypeOf(classic.Options{}), []string{"NoMetaUpdates", "NoPersistBarriers", "JournalBoundary"}},
		{reflect.TypeOf(jbd.Options{}), []string{"Start", "Blocks", "Observe", "Clock"}},
		{reflect.TypeOf(objstore.TierOptions{}), []string{"ObjectBlocks", "UploadWorkers", "MaxDirty",
			"PrefetchWorkers", "StagingObjects"}},
	} {
		var got []string
		for i := 0; i < tc.typ.NumField(); i++ {
			if f := tc.typ.Field(i); f.IsExported() && !f.Anonymous {
				got = append(got, f.Name)
			}
		}
		if !slices.Equal(got, tc.want) {
			t.Errorf("%v exported fields = %v, want %v", tc.typ, got, tc.want)
		}
	}
	if f, ok := reflect.TypeOf(Config{}).FieldByName("Options"); !ok || !f.Anonymous || f.Type != reflect.TypeOf(core.Options{}) {
		t.Error("Config no longer embeds core.Options")
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
