// Command tincabench regenerates the paper's tables and figures.
//
// Usage:
//
//	tincabench -fig 7            # one experiment (see -list)
//	tincabench -all              # every experiment, in paper order
//	tincabench -fig 8 -scale 0.2 # quicker, smaller run
//
// Numbers come from the simulated clock and the shared metrics recorder;
// absolute values are not comparable to the paper's testbed, the *shape*
// (who wins, by what factor) is. See EXPERIMENTS.md for the comparison.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"strings"
	"time"

	"tinca/internal/exp"
	"tinca/internal/metrics"
)

func main() {
	fig := flag.String("fig", "", "experiment(s) to run, comma-separated (see -list)")
	all := flag.Bool("all", false, "run every experiment")
	list := flag.Bool("list", false, "list experiments")
	scale := flag.Float64("scale", 1.0, "workload scale factor")
	seed := flag.Int64("seed", 42, "random seed")
	format := flag.String("format", "table", "output format: table | csv")
	observe := flag.Bool("observe", false, "enable latency histograms in every stack (DESIGN.md §9)")
	traceOut := flag.String("trace-out", "", "write commit spans as Chrome trace_event JSON to this file (implies -observe)")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics (Prometheus) and /debug/pprof on this address while running (implies -observe)")
	flag.Parse()
	outputCSV = *format == "csv"

	var tracer *metrics.Tracer
	if *traceOut != "" {
		tracer = metrics.NewTracer(metrics.DefaultTraceEvents)
		defer dumpTrace(tracer, *traceOut)
	}
	exp.Observability.Observe = *observe || tracer != nil || *metricsAddr != ""
	exp.Observability.Tracer = tracer
	if *metricsAddr != "" {
		exp.Observability.Publish = true
		serveMetrics(*metricsAddr)
	}

	switch {
	case *list:
		fmt.Println("experiments:", strings.Join(exp.Names(), " "))
		return
	case *all:
		for _, name := range exp.Names() {
			runOne(name, exp.Options{Scale: *scale, Seed: *seed})
		}
		return
	case *fig != "":
		for _, name := range strings.Split(*fig, ",") {
			if name = strings.TrimSpace(name); name != "" {
				runOne(name, exp.Options{Scale: *scale, Seed: *seed})
			}
		}
		return
	default:
		flag.Usage()
		os.Exit(2)
	}
}

var outputCSV bool

// serveMetrics exposes the process-wide published recorders (each stack an
// experiment brings up publishes its own) plus net/http/pprof. The server
// lives for the whole process; experiments run on the main goroutine.
func serveMetrics(addr string) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tincabench: -metrics-addr: %v\n", err)
		os.Exit(1)
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", metrics.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	fmt.Fprintf(os.Stderr, "tincabench: serving http://%s/metrics and /debug/pprof/\n", ln.Addr())
	go func() {
		if err := http.Serve(ln, mux); err != nil {
			fmt.Fprintf(os.Stderr, "tincabench: metrics server: %v\n", err)
		}
	}()
}

// dumpTrace writes the span ring for chrome://tracing / Perfetto.
func dumpTrace(tr *metrics.Tracer, path string) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tincabench: -trace-out: %v\n", err)
		return
	}
	werr := tr.WriteChromeTrace(f)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		fmt.Fprintf(os.Stderr, "tincabench: -trace-out: %v\n", werr)
		return
	}
	fmt.Fprintf(os.Stderr, "tincabench: wrote %d spans to %s (load in chrome://tracing or ui.perfetto.dev)\n", len(tr.Spans()), path)
}

func runOne(name string, o exp.Options) {
	start := time.Now()
	t, err := exp.Run(name, o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tincabench: %s: %v\n", name, err)
		if t != nil {
			fmt.Print(t)
		}
		os.Exit(1)
	}
	if outputCSV {
		fmt.Printf("# %s\n%s\n", t.Title, t.CSV())
		return
	}
	fmt.Print(t)
	fmt.Printf("(%s in %.1fs wall)\n\n", name, time.Since(start).Seconds())
}
