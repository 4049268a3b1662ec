package stack

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"tinca/internal/core"
	"tinca/internal/metrics"
	"tinca/internal/sim"
)

func buildObservedStack(t *testing.T) *Stack {
	t.Helper()
	s, err := New(Config{Kind: Tinca, Options: core.Options{Observe: true, Tracer: metrics.NewTracer(1 << 12)}})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for i := 0; i < 20; i++ {
		if err := s.FS.WriteFile(fmt.Sprintf("/f%d", i), []byte(strings.Repeat("x", 5000))); err != nil {
			t.Fatalf("write: %v", err)
		}
	}
	if _, err := s.FS.ReadFile("/f0"); err != nil {
		t.Fatalf("read: %v", err)
	}
	return s
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return resp.StatusCode, string(body)
}

func TestServeMetricsEndpoint(t *testing.T) {
	s := buildObservedStack(t)
	defer s.Close()

	addr, err := s.ServeMetrics("127.0.0.1:0")
	if err != nil {
		t.Fatalf("ServeMetrics: %v", err)
	}
	if _, err := s.ServeMetrics("127.0.0.1:0"); err == nil {
		t.Fatal("second ServeMetrics did not fail")
	}

	code, body := get(t, "http://"+addr+"/metrics")
	if code != 200 {
		t.Fatalf("/metrics status %d", code)
	}
	for _, want := range []string{
		"tinca_txn_commit",
		"# TYPE tinca_commit_total_ns histogram",
		"tinca_commit_total_ns_count",
		"tinca_fs_write_ns_count",
		`le="+Inf"`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q:\n%.2000s", want, body)
		}
	}

	code, body = get(t, "http://"+addr+"/trace")
	if code != 200 {
		t.Fatalf("/trace status %d", code)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("/trace invalid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("/trace has no spans")
	}

	code, _ = get(t, "http://"+addr+"/debug/pprof/")
	if code != 200 {
		t.Fatalf("/debug/pprof/ status %d", code)
	}

	s.CloseMetrics()
	if _, err := http.Get("http://" + addr + "/metrics"); err == nil {
		t.Fatal("endpoint still serving after CloseMetrics")
	}
	// And it can be reopened.
	if _, err := s.ServeMetrics("127.0.0.1:0"); err != nil {
		t.Fatalf("reopen after close: %v", err)
	}
}

// TestServeMetricsRingSeries checks that /metrics carries what lives
// outside the Recorder: one seal and one queue-depth sample per commit
// ring, labelled ring="<r>", and the index-grows and views-open gauges,
// each equal to what Stats reports.
func TestServeMetricsRingSeries(t *testing.T) {
	s, err := New(Config{Kind: Tinca, Options: core.Options{CommitRings: 4}})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer s.Close()
	for i := 0; i < 16; i++ {
		if err := s.FS.WriteFile(fmt.Sprintf("/f%d", i), []byte(strings.Repeat("r", 9000))); err != nil {
			t.Fatalf("write: %v", err)
		}
		if err := s.FS.Sync(); err != nil {
			t.Fatalf("sync: %v", err)
		}
	}
	addr, err := s.ServeMetrics("127.0.0.1:0")
	if err != nil {
		t.Fatalf("ServeMetrics: %v", err)
	}
	code, body := get(t, "http://"+addr+"/metrics")
	if code != 200 {
		t.Fatalf("/metrics status %d", code)
	}
	st := s.TCache.Stats()
	if len(st.RingSeals) != 4 {
		t.Fatalf("Stats has %d rings, want 4", len(st.RingSeals))
	}
	want := []string{
		"# TYPE tinca_txn_ring_seal gauge",
		"# TYPE tinca_ring_queue_depth gauge",
		fmt.Sprintf("tinca_cache_index_grows %d\n", st.IndexGrows),
		fmt.Sprintf("tinca_cache_views_open %d\n", st.OpenViews),
	}
	for r := 0; r < 4; r++ {
		if st.RingSeals[r] == 0 {
			t.Fatalf("ring %d never sealed: %v", r, st.RingSeals)
		}
		want = append(want,
			fmt.Sprintf("tinca_txn_ring_seal{ring=\"%d\"} %d\n", r, st.RingSeals[r]),
			fmt.Sprintf("tinca_ring_queue_depth{ring=\"%d\"} %d\n", r, st.RingQueueDepth[r]))
	}
	for _, w := range want {
		if !strings.Contains(body, w) {
			t.Errorf("/metrics missing %q", strings.TrimSpace(w))
		}
	}
	if t.Failed() {
		t.Logf("/metrics body:\n%s", body)
	}
}

func TestServeMetricsWithoutTracer(t *testing.T) {
	s, err := New(Config{Kind: Tinca, Options: core.Options{Observe: true}})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer s.Close()
	addr, err := s.ServeMetrics("127.0.0.1:0")
	if err != nil {
		t.Fatalf("ServeMetrics: %v", err)
	}
	if code, _ := get(t, "http://"+addr+"/trace"); code != 404 {
		t.Fatalf("/trace without tracer: status %d", code)
	}
}

func TestObserveWiresEveryLayer(t *testing.T) {
	s := buildObservedStack(t)
	defer s.Close()

	st := s.Stats()
	if st.FS.WriteLatency.Count == 0 || st.FS.ReadLatency.Count == 0 {
		t.Fatalf("fs latencies empty: %+v", st.FS)
	}
	if st.Cache.CommitLatency.Count == 0 || len(st.Cache.CommitPhases) == 0 {
		t.Fatalf("cache latencies empty: %+v", st.Cache.CommitLatency)
	}
	// pmem flush/fence cadence histograms are armed by the stack.
	if n := s.Rec.HistSnapshot(metrics.HistNVMFlushLines).Count; n == 0 {
		t.Fatal("nvm flush-burst histogram empty")
	}
	if n := s.Rec.HistSnapshot(metrics.HistNVMFenceGap).Count; n == 0 {
		t.Fatal("nvm fence-gap histogram empty")
	}
	if s.Tracer == nil || s.Tracer.Len() == 0 {
		t.Fatal("tracer empty")
	}

	// Classic kind: journal phases are observed instead.
	cs, err := New(Config{Kind: Classic, Options: core.Options{Observe: true}})
	if err != nil {
		t.Fatalf("New classic: %v", err)
	}
	defer cs.Close()
	for i := 0; i < 10; i++ {
		if err := cs.FS.WriteFile(fmt.Sprintf("/f%d", i), []byte("classic")); err != nil {
			t.Fatalf("write: %v", err)
		}
	}
	if err := cs.FS.Sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}
	if n := cs.Rec.HistSnapshot(metrics.HistJBDCommit).Count; n == 0 {
		t.Fatal("jbd commit histogram empty")
	}
	if n := cs.Rec.HistSnapshot(metrics.HistJBDLog).Count; n == 0 {
		t.Fatal("jbd log histogram empty")
	}
}

func TestObserveSurvivesRemount(t *testing.T) {
	s := buildObservedStack(t)
	defer s.Close()
	tr := s.Tracer
	s.Crash(sim.NewRand(1), 0.5)
	if err := s.Remount(); err != nil {
		t.Fatalf("remount: %v", err)
	}
	if s.Tracer != tr {
		t.Fatal("tracer replaced across remount")
	}
	// The remount's recovery pass was timed.
	if n := s.Rec.HistSnapshot(metrics.HistRecovery).Count; n == 0 {
		t.Fatal("recovery histogram empty after remount")
	}
	if err := s.FS.WriteFile("/after", []byte("ok")); err != nil {
		t.Fatalf("write after remount: %v", err)
	}
}
