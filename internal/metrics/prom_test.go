package metrics

import (
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

func TestPromName(t *testing.T) {
	if got := promName("nvm.clflush"); got != "tinca_nvm_clflush" {
		t.Fatalf("promName = %q", got)
	}
	if got := promName("commit.total_ns"); got != "tinca_commit_total_ns" {
		t.Fatalf("promName = %q", got)
	}
}

func TestWritePrometheusCounters(t *testing.T) {
	r := NewRecorder()
	r.Add(NVMCLFlush, 42)
	r.Add(DiskQueueDepth, 3)
	var b strings.Builder
	WritePrometheus(&b, r, "")
	out := b.String()
	for _, want := range []string{
		"# TYPE tinca_nvm_clflush gauge",
		"tinca_nvm_clflush 42",
		"tinca_disk_queue_depth 3",
		"tinca_cache_evict 0", // untouched counters are exposed too
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestWritePrometheusLabels(t *testing.T) {
	r := NewRecorder()
	r.Inc(CacheReadHit)
	r.Hist(HistFSRead).Record(10)
	var b strings.Builder
	WritePrometheus(&b, r, `registry="x"`)
	out := b.String()
	if !strings.Contains(out, `tinca_cache_read_hit{registry="x"} 1`) {
		t.Fatalf("counter label missing:\n%s", out)
	}
	if !strings.Contains(out, `tinca_fs_read_ns_bucket{registry="x",le="10"} 1`) {
		t.Fatalf("histogram label missing:\n%s", out)
	}
}

func TestWritePrometheusHistogramCumulative(t *testing.T) {
	r := NewRecorder()
	for _, v := range []int64{1, 2, 3, 1000, 100000} {
		r.Hist(HistFSWrite).Record(v)
	}
	var b strings.Builder
	WritePrometheus(&b, r, "")
	out := b.String()
	if !strings.Contains(out, "# TYPE tinca_fs_write_ns histogram") {
		t.Fatalf("no histogram TYPE line:\n%s", out)
	}
	// Bucket lines must be cumulative (non-decreasing) and end at +Inf
	// with the total count.
	re := regexp.MustCompile(`tinca_fs_write_ns_bucket\{le="([^"]+)"\} (\d+)`)
	ms := re.FindAllStringSubmatch(out, -1)
	if len(ms) < 4 {
		t.Fatalf("too few bucket lines:\n%s", out)
	}
	last := int64(-1)
	for _, m := range ms {
		n, _ := strconv.ParseInt(m[2], 10, 64)
		if n < last {
			t.Fatalf("buckets not cumulative at le=%s:\n%s", m[1], out)
		}
		last = n
	}
	if ms[len(ms)-1][1] != "+Inf" || ms[len(ms)-1][2] != "5" {
		t.Fatalf("+Inf bucket wrong: %v", ms[len(ms)-1])
	}
	if !strings.Contains(out, "tinca_fs_write_ns_count 5") {
		t.Fatalf("count sample missing:\n%s", out)
	}
	if !strings.Contains(out, "tinca_fs_write_ns_sum 101006") {
		t.Fatalf("sum sample missing:\n%s", out)
	}
}

func TestPublishAndHandler(t *testing.T) {
	r := NewRecorder()
	r.Inc(NetMessages)
	Publish("test-reg", r)
	defer Publish("test-reg", nil)

	srv := httptest.NewServer(Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatalf("scrape: %v", err)
	}
	defer resp.Body.Close()
	buf := make([]byte, 1<<16)
	n, _ := resp.Body.Read(buf)
	out := string(buf[:n])
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("content type %q", ct)
	}
	if !strings.Contains(out, `tinca_net_messages{registry="test-reg"} 1`) {
		t.Fatalf("published counter missing:\n%s", out)
	}

	// Publishing nil removes it from subsequent scrapes.
	Publish("test-reg", nil)
	var b strings.Builder
	WriteAllPrometheus(&b)
	if strings.Contains(b.String(), "test-reg") {
		t.Fatal("unpublished recorder still served")
	}
}

// TestRecorderSetGauge checks the ±gauge convention: a gauge counter
// moves by mixed-sign Add deltas, and Sub of two snapshots is the level
// change.
func TestRecorderSetGauge(t *testing.T) {
	r := NewRecorder()
	r.Add(DiskQueueDepth, 7)
	r.Add(DiskQueueDepth, -3)
	if got := r.Get(DiskQueueDepth); got != 4 {
		t.Fatalf("gauge after +7-3 = %d", got)
	}
	s0 := r.Snapshot()
	r.Add(DiskQueueDepth, -3)
	if d := r.Snapshot().Sub(s0); d.Get(DiskQueueDepth) != -3 {
		t.Fatalf("gauge delta = %d", d.Get(DiskQueueDepth))
	}
}

func TestWriteGauge(t *testing.T) {
	var b strings.Builder
	WriteGauge(&b, "cache.views_open", "", 2)
	WriteGauge(&b, "txn.ring_seal", "ring", 5, 0)
	want := "# TYPE tinca_cache_views_open gauge\ntinca_cache_views_open 2\n" +
		"# TYPE tinca_txn_ring_seal gauge\n" +
		"tinca_txn_ring_seal{ring=\"0\"} 5\ntinca_txn_ring_seal{ring=\"1\"} 0\n"
	if got := b.String(); got != want {
		t.Fatalf("WriteGauge wrote\n%s\nwant\n%s", got, want)
	}
}
