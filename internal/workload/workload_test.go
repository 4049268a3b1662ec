package workload_test

import (
	"bytes"
	"strings"
	"testing"

	"tinca/internal/blockdev"
	"tinca/internal/metrics"
	"tinca/internal/pmem"
	"tinca/internal/stack"
	"tinca/internal/workload"
)

func testStack(t *testing.T) *stack.Stack {
	t.Helper()
	s, err := stack.New(stack.Config{
		Kind:        stack.Tinca,
		NVMBytes:    8 << 20,
		NVMProfile:  pmem.NVDIMM,
		DiskProfile: blockdev.Null,
		FSBlocks:    8192,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestFioMixRespectsRatio(t *testing.T) {
	s := testStack(t)
	cnt, err := workload.RunFio(s.FS, workload.FioConfig{
		FileBytes: 2 << 20, Ops: 2000, ReadPct: 30, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	total := cnt.ReadOps + cnt.WriteOps
	if total != 2000 {
		t.Fatalf("ops = %d", total)
	}
	readFrac := float64(cnt.ReadOps) / float64(total)
	if readFrac < 0.25 || readFrac > 0.35 {
		t.Fatalf("read fraction = %v, want ~0.30", readFrac)
	}
	if err := s.FS.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestFioDeterministic(t *testing.T) {
	run := func() metrics.Snapshot {
		s := testStack(t)
		if _, err := workload.RunFio(s.FS, workload.FioConfig{
			FileBytes: 1 << 20, Ops: 500, ReadPct: 50, Seed: 7,
		}); err != nil {
			t.Fatal(err)
		}
		return s.Rec.Snapshot()
	}
	a, b := run(), run()
	for k, v := range a {
		if b[k] != v {
			t.Fatalf("non-deterministic counter %s: %d vs %d", metrics.Counter(k), v, b[k])
		}
	}
}

func TestFilebenchProfilesRun(t *testing.T) {
	for _, prof := range []workload.Profile{workload.Fileserver, workload.Webproxy, workload.Varmail} {
		prof := prof
		t.Run(prof.String(), func(t *testing.T) {
			s := testStack(t)
			cnt, err := workload.RunFilebench(s.FS, workload.FilebenchConfig{
				Profile: prof, Files: 32, FileBytes: 16 << 10, Ops: 300, Seed: 3,
			})
			if err != nil {
				t.Fatal(err)
			}
			if cnt.FileOps != 300 {
				t.Fatalf("file ops = %d", cnt.FileOps)
			}
			if cnt.ReadOps == 0 || cnt.WriteOps == 0 {
				t.Fatalf("degenerate mix: r=%d w=%d", cnt.ReadOps, cnt.WriteOps)
			}
			if err := s.FS.Check(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestFilebenchMixDirection(t *testing.T) {
	// Webproxy must be read-heavier than fileserver; varmail in between.
	frac := func(prof workload.Profile) float64 {
		s := testStack(t)
		cnt, err := workload.RunFilebench(s.FS, workload.FilebenchConfig{
			Profile: prof, Files: 32, FileBytes: 16 << 10, Ops: 600, Seed: 5,
		})
		if err != nil {
			t.Fatal(err)
		}
		return float64(cnt.ReadOps) / float64(cnt.ReadOps+cnt.WriteOps)
	}
	fsrv, wp := frac(workload.Fileserver), frac(workload.Webproxy)
	if wp <= fsrv {
		t.Fatalf("webproxy read frac %v <= fileserver %v", wp, fsrv)
	}
	if wp < 0.7 {
		t.Fatalf("webproxy read frac %v, want read-dominated", wp)
	}
	if fsrv > 0.5 {
		t.Fatalf("fileserver read frac %v, want write-dominated", fsrv)
	}
}

func TestTeraGenVolume(t *testing.T) {
	s := testStack(t)
	cnt, err := workload.RunTeraGen(s.FS, workload.TeraGenConfig{Rows: 10000, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if cnt.Bytes != 10000*100 {
		t.Fatalf("bytes = %d, want %d", cnt.Bytes, 10000*100)
	}
	// Part files must exist with the full payload.
	names, err := s.FS.ReadDir("/teragen")
	if err != nil {
		t.Fatal(err)
	}
	var total uint64
	for _, n := range names {
		info, err := s.FS.Stat("/teragen/" + n)
		if err != nil {
			t.Fatal(err)
		}
		total += info.Size
	}
	if total != 10000*100 {
		t.Fatalf("on-fs bytes = %d", total)
	}
	if err := s.FS.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestTraceParseFormatRoundTrip(t *testing.T) {
	recs := workload.SynthesizeTrace(4, 100, 8<<20, 40, 16<<10)
	var buf bytes.Buffer
	if err := workload.FormatTrace(&buf, recs); err != nil {
		t.Fatal(err)
	}
	parsed, err := workload.ParseTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed) != len(recs) {
		t.Fatalf("len %d != %d", len(parsed), len(recs))
	}
	for i := range recs {
		if parsed[i] != recs[i] {
			t.Fatalf("record %d: %+v != %+v", i, parsed[i], recs[i])
		}
	}
}

func TestTraceParseRejectsGarbage(t *testing.T) {
	for _, bad := range []string{"X,1,2", "W,notanum,2", "W,1", "R,1,-5"} {
		if _, err := workload.ParseTrace(strings.NewReader(bad)); err == nil {
			t.Fatalf("accepted %q", bad)
		}
	}
	// Comments and blanks are fine.
	recs, err := workload.ParseTrace(strings.NewReader("# header\n\nW,0,4096\n"))
	if err != nil || len(recs) != 1 {
		t.Fatalf("comment handling: %v %d", err, len(recs))
	}
}

func TestReplayTraceOnStack(t *testing.T) {
	s := testStack(t)
	recs := workload.SynthesizeTrace(9, 300, 4<<20, 50, 8<<10)
	cnt, err := workload.ReplayTrace(s.FS, "/trace.dat", recs)
	if err != nil {
		t.Fatal(err)
	}
	if cnt.WriteOps+cnt.ReadOps != 300 {
		t.Fatalf("ops = %d", cnt.WriteOps+cnt.ReadOps)
	}
	if err := s.FS.Check(); err != nil {
		t.Fatal(err)
	}
}
