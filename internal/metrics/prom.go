package metrics

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
)

// This file renders a Recorder in the Prometheus text exposition format
// (version 0.0.4), so a long-running tincafs/tincabench can be scraped by
// any Prometheus-compatible collector without importing client libraries.
// Every counter is exposed, zeros included, so each scrape carries the same
// series. Counter names keep their dotted registry form with dots mapped
// to underscores and a "tinca_" prefix: "nvm.clflush" → "tinca_nvm_clflush".
// Histograms are exposed in the native histogram text form: cumulative
// "_bucket{le=...}" lines over the log-linear bucket upper bounds, plus
// "_sum" and "_count".

// promName sanitizes a registry name into a Prometheus metric name.
func promName(name string) string {
	var b strings.Builder
	b.WriteString("tinca_")
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// WritePrometheus renders every counter and every created histogram of r.
// labels, if non-empty, is rendered verbatim inside the label braces of
// every sample (e.g. `registry="exp"`).
func WritePrometheus(w io.Writer, r *Recorder, labels string) {
	lb := ""
	if labels != "" {
		lb = "{" + labels + "}"
	}
	snap := r.Snapshot()
	for _, c := range counterOrder {
		pn := promName(c.String())
		fmt.Fprintf(w, "# TYPE %s gauge\n%s%s %d\n", pn, pn, lb, snap[c])
	}
	for _, s := range r.HistSnapshots() {
		writePromHistogram(w, s, labels)
	}
}

// WriteGauge renders one gauge family whose values live outside a
// Recorder. With key empty the value is written unlabelled; otherwise
// sample i carries the label key="i" (e.g. ring="0").
func WriteGauge(w io.Writer, name, key string, vals ...int64) {
	pn := promName(name)
	fmt.Fprintf(w, "# TYPE %s gauge\n", pn)
	for i, v := range vals {
		if key == "" {
			fmt.Fprintf(w, "%s %d\n", pn, v)
		} else {
			fmt.Fprintf(w, "%s{%s=\"%d\"} %d\n", pn, key, i, v)
		}
	}
}

func writePromHistogram(w io.Writer, s HistSnapshot, labels string) {
	pn := promName(s.Name)
	sep := ""
	if labels != "" {
		sep = ","
	}
	fmt.Fprintf(w, "# TYPE %s histogram\n", pn)
	idx := make([]int, 0, len(s.Buckets))
	for i := range s.Buckets {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	var cum int64
	for _, i := range idx {
		cum += s.Buckets[i]
		fmt.Fprintf(w, "%s_bucket{%s%sle=\"%d\"} %d\n", pn, labels, sep, bucketUpper(i), cum)
	}
	fmt.Fprintf(w, "%s_bucket{%s%sle=\"+Inf\"} %d\n", pn, labels, sep, s.Count)
	lb := ""
	if labels != "" {
		lb = "{" + labels + "}"
	}
	fmt.Fprintf(w, "%s_sum%s %d\n", pn, lb, s.Sum)
	fmt.Fprintf(w, "%s_count%s %d\n", pn, lb, s.Count)
}

// published is the process-wide registry of live Recorders a metrics
// endpoint exposes. Experiment drivers publish each stack's recorder as
// they bring it up, so `tincabench -metrics-addr` serves whatever run is
// currently in flight.
var (
	publishedMu sync.Mutex
	published   = map[string]*Recorder{}
)

// Publish registers r under name for HTTP exposition, replacing any
// previous recorder of that name; a nil r removes the name. Publishing is
// cheap; nothing is read until a scrape arrives.
func Publish(name string, r *Recorder) {
	publishedMu.Lock()
	defer publishedMu.Unlock()
	if r == nil {
		delete(published, name)
		return
	}
	published[name] = r
}

// WriteAllPrometheus renders every published recorder, each labelled with
// registry="<name>".
func WriteAllPrometheus(w io.Writer) {
	publishedMu.Lock()
	type entry struct {
		name string
		r    *Recorder
	}
	entries := make([]entry, 0, len(published))
	for n, r := range published {
		entries = append(entries, entry{n, r})
	}
	publishedMu.Unlock()
	sort.Slice(entries, func(i, j int) bool { return entries[i].name < entries[j].name })
	for _, e := range entries {
		WritePrometheus(w, e.r, fmt.Sprintf("registry=%q", e.name))
	}
}

// Handler serves the published recorders in Prometheus text format.
func Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		WriteAllPrometheus(w)
	})
}
