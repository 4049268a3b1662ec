package stack

import (
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"

	"tinca/internal/metrics"
)

// ServeMetrics starts an HTTP server on addr (host:port; use ":0" for an
// ephemeral port) exposing the stack's live observability surface:
//
//	/metrics       Prometheus 0.0.4 text exposition of the stack's
//	               Recorder: every counter/gauge as tinca_<name>, every
//	               latency histogram with cumulative buckets, _sum and
//	               _count; on Tinca also the index-grows and views-open
//	               gauges and the per-ring seal and queue-depth series
//	               (label ring="<r>"). Scrape it, or `curl` it and eyeball.
//	/trace         Chrome trace_event JSON of the tracer ring (load in
//	               chrome://tracing or https://ui.perfetto.dev). 404
//	               when the stack was built without Options.Tracer.
//	/blackbox      Plain-text forensic report decoded live from the NVM
//	               flight ring: last sealed generation, txns in flight,
//	               last-N event timeline. 404 when the stack was built
//	               without Options.FlightRecorder (or is not Tinca).
//	/debug/pprof/  net/http/pprof (heap, goroutine, profile, ...), for
//	               profiling the simulator process itself.
//
// It returns the bound address ("127.0.0.1:43210") so callers using ":0"
// can report where to point the browser. The server runs until
// CloseMetrics or Close; serving is independent of the simulated clock.
func (s *Stack) ServeMetrics(addr string) (string, error) {
	if s.metricsSrv != nil {
		return "", fmt.Errorf("stack: metrics endpoint already serving")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("stack: metrics listen: %w", err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		metrics.WritePrometheus(w, s.Rec, "")
		// A few cache-level values live outside the Recorder (the sharded
		// index, the views-open atomic, the ring state); print them from
		// Stats so Prometheus sees the full counter surface.
		if c := s.TCache; c != nil {
			st := c.Stats()
			metrics.WriteGauge(w, "cache.index_grows", "", st.IndexGrows)
			metrics.WriteGauge(w, "cache.views_open", "", st.OpenViews)
			metrics.WriteGauge(w, "txn.ring_seal", "ring", st.RingSeals...)
			metrics.WriteGauge(w, "ring.queue_depth", "ring", st.RingQueueDepth...)
		}
	})
	mux.HandleFunc("/blackbox", func(w http.ResponseWriter, r *http.Request) {
		c := s.TCache
		if c == nil {
			http.Error(w, "no Tinca cache in this stack", http.StatusNotFound)
			return
		}
		bb := c.Blackbox()
		if bb == nil {
			http.Error(w, "stack built without Options.FlightRecorder", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		bb.Report(w, 32)
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, r *http.Request) {
		if s.Tracer == nil {
			http.Error(w, "stack built without a tracer (set Options.Tracer)", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		s.Tracer.WriteChromeTrace(w)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.metricsSrv = &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go func(srv *http.Server) {
		// ErrServerClosed is the normal shutdown path. Anything else on a
		// just-bound local listener is a programming error, so it panics
		// rather than being swallowed in a goroutine.
		if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			panic(fmt.Sprintf("stack: metrics server: %v", err))
		}
	}(s.metricsSrv)
	return ln.Addr().String(), nil
}

// CloseMetrics stops the HTTP endpoint started by ServeMetrics. Safe to
// call when none is serving.
func (s *Stack) CloseMetrics() {
	if s.metricsSrv == nil {
		return
	}
	s.metricsSrv.Close()
	s.metricsSrv = nil
}
