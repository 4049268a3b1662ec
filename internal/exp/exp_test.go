package exp

import (
	"strconv"
	"strings"
	"testing"
)

// quick runs every driver at a small scale; these tests assert the key
// *shape* properties the paper claims, not absolute values.
var quick = Options{Scale: 0.12, Seed: 42}

func cellF(t *testing.T, tb *Table, row int, col string) float64 {
	t.Helper()
	v := strings.TrimSuffix(tb.Cell(row, col), "x")
	v = strings.TrimSuffix(v, "s")
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		t.Fatalf("cell %q not numeric: %v", tb.Cell(row, col), err)
	}
	return f
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"table1", "table2", "3a", "3b", "4", "7", "8", "10", "11", "12a", "12b", "12c", "13",
		"recover", "ablate", "endurance", "clwb", "recovertime", "modes", "groupcommit", "phases",
		"readhit", "indexscale", "recoverybreakdown", "recoveryscale", "writerscaling"}
	names := Names()
	if len(names) != len(want) {
		t.Fatalf("registry has %d entries, want %d: %v", len(names), len(want), names)
	}
	for _, w := range want {
		if _, ok := Registry[w]; !ok {
			t.Fatalf("experiment %q missing", w)
		}
	}
	if _, err := Run("nonsense", quick); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestTablesRender(t *testing.T) {
	for _, name := range []string{"table1", "table2"} {
		tb, err := Run(name, quick)
		if err != nil {
			t.Fatal(err)
		}
		if len(tb.Rows) == 0 || !strings.Contains(tb.String(), "==") {
			t.Fatalf("%s rendered empty", name)
		}
	}
}

func TestFig3aJournalAmplifies(t *testing.T) {
	tb, err := Fig3a(quick)
	if err != nil {
		t.Fatal(err)
	}
	for r := range tb.Rows {
		ratio := cellF(t, tb, r, "journal/nojournal %")
		if ratio < 120 {
			t.Fatalf("row %d: journalling amplification only %.1f%%", r, ratio)
		}
	}
}

func TestFig3bMonotoneDrops(t *testing.T) {
	tb, err := Fig3b(quick)
	if err != nil {
		t.Fatal(err)
	}
	b0 := cellF(t, tb, 0, "bandwidth MB/s")
	b1 := cellF(t, tb, 1, "bandwidth MB/s")
	b2 := cellF(t, tb, 2, "bandwidth MB/s")
	if !(b0 > b1 && b1 > b2) {
		t.Fatalf("bandwidth not monotone: %v > %v > %v expected", b0, b1, b2)
	}
}

func TestFig4MetadataCosts(t *testing.T) {
	tb, err := Fig4(quick)
	if err != nil {
		t.Fatal(err)
	}
	// Waiving metadata must improve both configurations.
	if cellF(t, tb, 1, "write IOPS") <= cellF(t, tb, 0, "write IOPS") {
		t.Fatal("no-metadata did not improve journal config")
	}
	if cellF(t, tb, 3, "write IOPS") <= cellF(t, tb, 2, "write IOPS") {
		t.Fatal("no-metadata did not improve no-journal config")
	}
}

func TestFig7TincaWins(t *testing.T) {
	tb, err := Fig7(quick)
	if err != nil {
		t.Fatal(err)
	}
	// Rows alternate Classic/Tinca per ratio.
	for r := 0; r < len(tb.Rows); r += 2 {
		classic := cellF(t, tb, r, "write IOPS")
		tinca := cellF(t, tb, r+1, "write IOPS")
		if tinca <= classic {
			t.Fatalf("ratio row %d: Tinca %.0f <= Classic %.0f IOPS", r/2, tinca, classic)
		}
		cf := cellF(t, tb, r+1, "clflush fewer %")
		if cf < 50 {
			t.Fatalf("clflush reduction only %.1f%%", cf)
		}
	}
}

func TestFig8TincaWinsAndUsersDegrade(t *testing.T) {
	tb, err := Fig8(quick)
	if err != nil {
		t.Fatal(err)
	}
	// Tinca beats Classic at every user count; both decline with users.
	firstClassic := cellF(t, tb, 0, "TPM")
	lastClassic := cellF(t, tb, len(tb.Rows)-2, "TPM")
	if lastClassic >= firstClassic {
		t.Fatalf("Classic TPM did not decline with users: %v -> %v", firstClassic, lastClassic)
	}
	for r := 0; r < len(tb.Rows); r += 2 {
		if cellF(t, tb, r+1, "TPM") <= cellF(t, tb, r, "TPM") {
			t.Fatalf("users row %d: Tinca did not win", r/2)
		}
	}
}

func TestFig10GapAndReductions(t *testing.T) {
	tb, err := Fig10(quick)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < len(tb.Rows); r += 2 {
		saved := cellF(t, tb, r+1, "time saved %")
		if saved <= 0 {
			t.Fatalf("replicas row %d: Tinca not faster (%.1f%%)", r/2, saved)
		}
		cf := cellF(t, tb, r+1, "clflush fewer %")
		if cf < 40 {
			t.Fatalf("clflush reduction only %.1f%%", cf)
		}
	}
}

func TestFig11OrderingAcrossWorkloads(t *testing.T) {
	tb, err := Fig11(quick)
	if err != nil {
		t.Fatal(err)
	}
	// All three workloads: Tinca wins.
	ratios := map[string]float64{}
	for r := 1; r < len(tb.Rows); r += 2 {
		ratio := cellF(t, tb, r, "OPs ratio")
		if ratio <= 1 {
			t.Fatalf("%s: Tinca did not win (%.2fx)", tb.Rows[r][0], ratio)
		}
		ratios[tb.Rows[r][0]] = ratio
	}
	// Webproxy (read-heavy) benefits least, as in the paper.
	if ratios["webproxy"] >= ratios["fileserver"] {
		t.Fatalf("webproxy ratio %.2f >= fileserver %.2f", ratios["webproxy"], ratios["fileserver"])
	}
}

func TestFig12Family(t *testing.T) {
	a, err := Fig12a(quick)
	if err != nil {
		t.Fatal(err)
	}
	for r := range a.Rows {
		if cellF(t, a, r, "Tinca TPM") <= cellF(t, a, r, "Classic TPM") {
			t.Fatalf("12a row %d: Tinca did not win", r)
		}
	}
	b, err := Fig12b(quick)
	if err != nil {
		t.Fatal(err)
	}
	// Faster NVM (NVDIMM, row 1) improves both over PCM (row 0).
	if cellF(t, b, 1, "Tinca TPM") <= cellF(t, b, 0, "Tinca TPM") {
		t.Fatal("12b: NVDIMM not faster than PCM for Tinca")
	}
	// The gap narrows on faster NVM, as in the paper.
	gapPCM := cellF(t, b, 0, "Tinca/Classic")
	gapNVD := cellF(t, b, 1, "Tinca/Classic")
	if gapNVD >= gapPCM {
		t.Fatalf("12b: gap did not narrow on faster NVM (%.2f -> %.2f)", gapPCM, gapNVD)
	}
	c, err := Fig12c(quick)
	if err != nil {
		t.Fatal(err)
	}
	if cellF(t, c, 1, "write hit rate %") <= cellF(t, c, 0, "write hit rate %") {
		t.Fatal("12c: Tinca hit rate not higher than Classic")
	}
}

func TestFig13FileserverHeavier(t *testing.T) {
	tb, err := Fig13(quick)
	if err != nil {
		t.Fatal(err)
	}
	// Mean over windows: fileserver commits more blocks per txn.
	var fsum, wsum float64
	for r := range tb.Rows {
		fsum += cellF(t, tb, r, "fileserver blks/txn")
		wsum += cellF(t, tb, r, "webproxy blks/txn")
	}
	if fsum <= wsum {
		t.Fatalf("fileserver (%.0f) not heavier than webproxy (%.0f)", fsum, wsum)
	}
}

func TestRecoverabilityClean(t *testing.T) {
	tb, err := Recoverability(quick)
	if err != nil {
		t.Fatalf("recoverability failures: %v\n%s", err, tb)
	}
}

func TestAblationsDirections(t *testing.T) {
	tb, err := Ablations(quick)
	if err != nil {
		t.Fatal(err)
	}
	base := cellF(t, tb, 0, "clflush/write")
	doubleWrite := cellF(t, tb, 1, "clflush/write")
	ubj := cellF(t, tb, 2, "clflush/write")
	if doubleWrite <= base {
		t.Fatal("double-write ablation did not increase clflush")
	}
	if ubj <= base {
		t.Fatal("UBJ ablation did not increase clflush")
	}
}

func TestExtensionsRun(t *testing.T) {
	// Endurance: Tinca's media lifetime multiplier > 1; rotation levels
	// the hottest line.
	e, err := Endurance(quick)
	if err != nil {
		t.Fatal(err)
	}
	if cellF(t, e, 1, "line writes/MB") >= cellF(t, e, 0, "line writes/MB") {
		t.Fatal("Tinca wears media faster than Classic")
	}
	if cellF(t, e, 2, "hottest ptr line") >= cellF(t, e, 1, "hottest ptr line") {
		t.Fatal("pointer rotation did not level the pointer-line wear")
	}
	// clwb: the gap persists under cheaper flush instructions.
	c, err := CLWB(quick)
	if err != nil {
		t.Fatal(err)
	}
	for r := range c.Rows {
		if cellF(t, c, r, "Tinca IOPS") <= cellF(t, c, r, "Classic IOPS") {
			t.Fatalf("clwb row %d: Tinca did not win", r)
		}
	}
	// Recovery time: Tinca's sweep scales with capacity and stays small.
	rt, err := RecoveryTime(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(rt.Rows) != 3 {
		t.Fatalf("recovery rows = %d", len(rt.Rows))
	}
	// Journal modes: Tinca (row 0) beats every Classic mode, including
	// the weaker ordered mode (row 2).
	m, err := JournalModes(quick)
	if err != nil {
		t.Fatal(err)
	}
	tincaIOPS := cellF(t, m, 0, "write IOPS")
	for r := 1; r < len(m.Rows)-1; r++ { // exclude the unsafe no-journal row
		if tincaIOPS <= cellF(t, m, r, "write IOPS") {
			t.Fatalf("modes row %d (%s) beats Tinca", r, m.Rows[r][0])
		}
	}
	// Ordered must beat full data journalling (it writes less).
	if cellF(t, m, 2, "write IOPS") <= cellF(t, m, 1, "write IOPS") {
		t.Fatal("ordered mode not faster than data journalling")
	}
}

func TestGroupCommitScaling(t *testing.T) {
	tb, err := GroupCommitScaling(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 4 {
		t.Fatalf("scaling rows = %d, want 4 (1/2/4/8 goroutines)", len(tb.Rows))
	}
	// Acceptance bar: >=1.5x commit throughput at 4 goroutines vs 1.
	if s := cellF(t, tb, 2, "speedup"); s < 1.5 {
		t.Fatalf("4-goroutine speedup %.2fx < 1.5x\n%s", s, tb)
	}
	// Batching must actually have happened at 8 goroutines.
	if ab := cellF(t, tb, 3, "avg batch"); ab <= 1.1 {
		t.Fatalf("8-goroutine avg batch %.2f: no coalescing\n%s", ab, tb)
	}
}

func TestReadHitScaling(t *testing.T) {
	tb, err := ReadHitScaling(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 5 {
		t.Fatalf("scaling rows = %d, want 5 (1/4/8/16 goroutines + the writer row)", len(tb.Rows))
	}
	s, ok := tb.Metrics["readhit_speedup_8g_x"]
	if !ok {
		t.Fatalf("readhit_speedup_8g_x metric missing\n%s", tb)
	}
	// The hit-dominated workload must actually run the fast path, even
	// with a committer interleaving seals of the same hot set.
	ratio, ok := tb.Metrics["fast_hit_ratio"]
	if !ok {
		t.Fatalf("fast_hit_ratio metric missing\n%s", tb)
	}
	if ratio < 0.95 {
		t.Fatalf("fast-hit ratio %.3f < 0.95 under commit interference\n%s", ratio, tb)
	}
	// Acceptance bar (ISSUE 5): at 8 readers on a single hot shard the
	// seqlock fast path must deliver >=3x the one-reader throughput, which
	// is all a hit path serialized on the shard mutex reaches at any reader
	// count. (That a fast hit charges exactly what a locked hit does is
	// core's TestCrashSweepFastPathParity.)
	if s < 3 {
		t.Fatalf("8-reader hit-path speedup %.2fx < 3x\n%s", s, tb)
	}
}

func TestWriterScaling(t *testing.T) {
	tb, err := WriterScaling(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 5 {
		t.Fatalf("scaling rows = %d, want 5 (1/2/4/8/16 goroutines)", len(tb.Rows))
	}
	s, ok := tb.Metrics["writer_speedup_8"]
	if !ok {
		t.Fatalf("writer_speedup_8 metric missing\n%s", tb)
	}
	// Acceptance bar: 16 per-shard rings must commit >=4x the single
	// ring's throughput at 8 committers on disjoint shards. The figure
	// runs on one P, so the bar holds on any host size.
	if s < 4 {
		t.Fatalf("8-committer multi-ring speedup %.2fx < 4x\n%s", s, tb)
	}
}

func TestCommitPhaseBreakdown(t *testing.T) {
	tb, err := Run("phases", quick)
	if err != nil {
		t.Fatal(err)
	}
	systems := map[string]bool{}
	phases := map[string]bool{}
	for r, row := range tb.Rows {
		systems[row[0]] = true
		phases[tb.Cell(r, "phase")] = true
		if n := cellF(t, tb, r, "count"); n <= 0 {
			t.Fatalf("row %d (%s/%s): zero samples\n%s", r, row[0], tb.Cell(r, "phase"), tb)
		}
	}
	if !systems["Tinca"] || !systems["Classic"] {
		t.Fatalf("missing a system: %v", systems)
	}
	// The headline rows and the paper's pipeline phases must be present.
	for _, p := range []string{"whole commit", "data", "tail+fence", "desc+log", "commit blk"} {
		if !phases[p] {
			t.Fatalf("phase %q missing: %v", p, phases)
		}
	}
	if !strings.Contains(tb.String(), "==") {
		t.Fatal("phases table rendered empty")
	}
}

func TestTableCellPanicsOnUnknownColumn(t *testing.T) {
	tb := NewTable("t", "a")
	tb.AddRow("x")
	defer func() {
		if recover() == nil {
			t.Fatal("Cell with bad column did not panic")
		}
	}()
	tb.Cell(0, "nope")
}

func TestIndexScale(t *testing.T) {
	tb, err := IndexScale(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 3 {
		t.Fatalf("rows = %d, want 3 (one per table size)", len(tb.Rows))
	}
	// Acceptance bar (ISSUE 6): a warm read on the public API — copying
	// Read and zero-copy ReadView+Close alike — allocates nothing.
	for _, m := range []string{"read_allocs_per_op", "readview_allocs_per_op"} {
		v, ok := tb.Metrics[m]
		if !ok {
			t.Fatalf("%s metric missing\n%s", m, tb)
		}
		if v != 0 {
			t.Fatalf("%s = %v, want 0\n%s", m, v, tb)
		}
	}
	// Bucket lookups must not allocate at any size, and the hit cost must
	// stay in the same ballpark as the table grows (flat modulo cache
	// effects; the quick scale spans ~12K to 1.2M entries). Host wall
	// time is noisy in CI, so the bar is loose — the sync.Map this table
	// replaced blew through it by an order of magnitude at full scale.
	if f, ok := tb.Metrics["bucket_hit_flatness_x"]; !ok || f > 6 {
		t.Fatalf("bucket hit cost grew %vx across table sizes (want metric present and <= 6)\n%s", f, tb)
	}
}

func TestRecoveryBreakdown(t *testing.T) {
	tb, err := RecoveryBreakdown(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 6 {
		t.Fatalf("rows = %d, want 6 (undo/redo x 3 sizes)\n%s", len(tb.Rows), tb)
	}
	for r := range tb.Rows {
		mode := tb.Cell(r, "mode")
		switch mode {
		case "undo":
			// Mid-log crash: recovery must have revoked stray log entries
			// and done no role-switch completion.
			if s := cellF(t, tb, r, "stray"); s == 0 {
				t.Fatalf("row %d: undo trial revoked no strays\n%s", r, tb)
			}
			if n := cellF(t, tb, r, "redone"); n != 0 {
				t.Fatalf("row %d: undo trial redid %v entries\n%s", r, n, tb)
			}
		case "redo":
			// Post-Head-flip crash: a nonzero ring span whose role switch
			// recovery completed.
			if sp := cellF(t, tb, r, "ring span"); sp == 0 {
				t.Fatalf("row %d: redo trial has empty ring span\n%s", r, tb)
			}
			if n := cellF(t, tb, r, "redone"); n == 0 {
				t.Fatalf("row %d: redo trial redid nothing\n%s", r, tb)
			}
		default:
			t.Fatalf("row %d: unexpected mode %q\n%s", r, mode, tb)
		}
		if n := cellF(t, tb, r, "scanned"); n == 0 {
			t.Fatalf("row %d: entry-table scan saw nothing\n%s", r, tb)
		}
	}
	// The scan phase is O(capacity): 32MB must cost measurably more than
	// 8MB (the quick scale keeps the fill small; the sweep is not).
	s8 := tb.Metrics["recovery_8mb_undo_scan_ns"]
	s32 := tb.Metrics["recovery_32mb_undo_scan_ns"]
	if s8 == 0 || s32 < s8*2 {
		t.Fatalf("scan did not scale with capacity: 8MB %.0fns vs 32MB %.0fns\n%s", s8, s32, tb)
	}
}

func TestRecoveryScaleFlat(t *testing.T) {
	tb, err := RecoveryScale(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 8 {
		t.Fatalf("rows = %d, want 8 (off/on x 4 sizes)\n%s", len(tb.Rows), tb)
	}
	on, off := tb.Metrics["recovery_scale_on_growth"], tb.Metrics["recovery_scale_off_growth"]
	// The checkpointed restart must be flat (the CI gate), and the
	// full-scan baseline must actually grow — otherwise the figure is
	// vacuous and the flatness proves nothing.
	if on > 2 {
		t.Fatalf("checkpointed restart grew %.2fx across sizes\n%s", on, tb)
	}
	if off < 2 {
		t.Fatalf("full-scan baseline grew only %.2fx; the linear comparison is vacuous\n%s", off, tb)
	}
	if off <= on {
		t.Fatalf("baseline growth %.2fx not above checkpointed growth %.2fx\n%s", off, on, tb)
	}
}
