// Command tincatrace replays a block trace against a chosen storage stack
// and reports the metrics the paper's evaluation uses, so real-world
// workloads (e.g. converted MSR Cambridge traces) can be compared on
// Tinca vs Classic:
//
//	tincatrace -kind tinca  trace.csv
//	tincatrace -kind classic trace.csv
//	tincatrace -synth 10000 -writepct 70     # no file: synthesize a trace
//
// Trace format (one I/O per line, '#' comments allowed):
//
//	W,<offset>,<bytes>
//	R,<offset>,<bytes>
package main

import (
	"flag"
	"fmt"
	"os"

	"tinca"
	"tinca/internal/workload"
)

func main() {
	kindFlag := flag.String("kind", "tinca", "stack kind: tinca | classic | nojournal")
	nvmMB := flag.Int("nvm", 16, "NVM cache size (MB)")
	fsMB := flag.Int("fs", 64, "file system size (MB)")
	synth := flag.Int("synth", 0, "synthesize this many records instead of reading a file")
	writePct := flag.Int("writepct", 50, "write percentage for -synth")
	seed := flag.Int64("seed", 42, "seed for -synth")
	observe := flag.Bool("observe", false, "report per-op latency percentiles (simulated time)")
	traceOut := flag.String("trace-out", "", "write commit spans as Chrome trace_event JSON to this file (implies -observe)")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics and /debug/pprof on this address during the replay (implies -observe)")
	flag.Parse()

	var recs []workload.TraceRecord
	switch {
	case *synth > 0:
		recs = workload.SynthesizeTrace(*seed, *synth, uint64(*fsMB)<<20/2, *writePct, 16<<10)
	case flag.NArg() == 1:
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		recs, err = workload.ParseTrace(f)
		if err != nil {
			fatal(err)
		}
	default:
		fmt.Fprintln(os.Stderr, "usage: tincatrace [-kind tinca|classic] <trace.csv> | -synth N")
		os.Exit(2)
	}

	kind := tinca.KindTinca
	switch *kindFlag {
	case "tinca":
	case "classic":
		kind = tinca.KindClassic
	case "nojournal":
		kind = tinca.KindClassicNoJournal
	default:
		fatal(fmt.Errorf("unknown -kind %q", *kindFlag))
	}

	cfg := tinca.StackConfig{
		Kind:              kind,
		NVMBytes:          *nvmMB << 20,
		FSBlocks:          uint64(*fsMB) << 20 / tinca.BlockSize,
		GroupCommitBlocks: 32,
		Options:           tinca.CacheOptions{Observe: *observe || *metricsAddr != ""},
	}
	if *traceOut != "" {
		cfg.Tracer = tinca.NewTracer(0)
		// The flight-recorder timeline merges into the trace export as an
		// instant-event track (Tinca only; silent persists, so it does not
		// change the replay's simulated numbers).
		if kind == tinca.KindTinca {
			cfg.FlightRecorder = true
		}
	}
	s, err := tinca.NewStack(cfg)
	if err != nil {
		fatal(err)
	}
	if *metricsAddr != "" {
		addr, err := s.ServeMetrics(*metricsAddr)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "serving http://%s/metrics and /debug/pprof/\n", addr)
	}

	before := s.Stats().Device
	t0 := s.Clock.Now()
	cnt, err := workload.ReplayTrace(s.FS, "/trace.dat", recs)
	if err != nil {
		fatal(err)
	}
	d := s.Stats().Device.Sub(before)
	wall := s.Clock.Now() - t0

	ops := cnt.ReadOps + cnt.WriteOps
	perOp := func(n int64) float64 {
		if ops == 0 {
			return 0
		}
		return float64(n) / float64(ops)
	}
	fmt.Printf("replayed %d I/Os (%d writes, %d reads, %.1f MB) on the %s stack\n",
		ops, cnt.WriteOps, cnt.ReadOps, float64(cnt.Bytes)/(1<<20), kind)
	fmt.Printf("simulated time:    %v\n", wall)
	fmt.Printf("throughput:        %.0f IOPS, %.1f MB/s (simulated)\n",
		float64(ops)/wall.Seconds(), float64(cnt.Bytes)/(1<<20)/wall.Seconds())
	fmt.Printf("clflush/IO:        %.1f\n", perOp(d.CLFlushes))
	fmt.Printf("disk blocks/IO:    write %.2f, read %.2f\n",
		perOp(d.DiskBlocksWrite), perOp(d.DiskBlocksRead))

	if s.Cfg.Observe {
		st := s.Stats()
		if st.FS.ReadLatency.Count > 0 {
			fmt.Printf("fs read op:        %s\n", st.FS.ReadLatency)
		}
		if st.FS.WriteLatency.Count > 0 {
			fmt.Printf("fs write op:       %s\n", st.FS.WriteLatency)
		}
		if st.Cache.CommitLatency.Count > 0 {
			fmt.Printf("cache commit:      %s\n", st.Cache.CommitLatency)
			for _, p := range st.Cache.CommitPhases {
				fmt.Printf("  %-18s %s\n", p.Phase, p.LatencySummary)
			}
		}
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fatal(err)
		}
		// Flight-recorder events become thread-scoped instant markers on a
		// dedicated track (tid -1) beside the span tracks.
		var instants []tinca.TraceInstant
		if s.TCache != nil {
			if bb := s.TCache.Blackbox(); bb != nil {
				for _, r := range bb.Records {
					instants = append(instants, tinca.TraceInstant{
						Name: "flight." + r.Type.String(),
						TS:   r.TimeNS,
						TID:  -1,
						Args: map[string]uint64{"seq": r.Seq, "gen": r.Gen, "block": r.Block, "arg": r.Arg},
					})
				}
			}
		}
		if err := s.Tracer.WriteChromeTraceWith(f, instants); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %d spans + %d flight events to %s (load in chrome://tracing or ui.perfetto.dev)\n",
			len(s.Tracer.Spans()), len(instants), *traceOut)
	}

	if err := s.FS.Check(); err != nil {
		fatal(fmt.Errorf("post-replay fsck: %w", err))
	}
	fmt.Println("fsck: clean")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tincatrace:", err)
	os.Exit(1)
}
