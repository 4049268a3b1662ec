// Command tincafs is an interactive shell over a file system mounted on a
// Tinca (or Classic) stack — handy for poking at the system and for
// demonstrating crash recovery by hand:
//
//	$ tincafs
//	tinca> mkdir /docs
//	tinca> put /docs/a.txt hello world
//	tinca> crash          # power failure: un-flushed state is lost
//	tinca> recover        # Tinca's Section 4.5 recovery
//	tinca> cat /docs/a.txt
//	hello world
//	tinca> stats
//
// Commands: mkdir ls put cat append rm mv stat truncate sync crash recover
// fsck stats lat time help quit. Start with -observe (or -metrics-addr) to
// record latency histograms; 'lat' prints the percentiles.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"tinca"
	"tinca/internal/sim"
)

func main() {
	kindFlag := flag.String("kind", "tinca", "stack kind: tinca | classic | nojournal")
	nvmMB := flag.Int("nvm", 16, "NVM cache size (MB)")
	fsMB := flag.Int("fs", 64, "file system size (MB)")
	observe := flag.Bool("observe", false, "enable latency histograms (see the 'lat' command)")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics (Prometheus) and /debug/pprof on this address (implies -observe)")
	rings := flag.Int("rings", 0, "CommitRings: split the NVM log into N per-shard commit rings (tinca only; 0 = single ring)")
	flag.Parse()

	var kind = tinca.KindTinca
	switch *kindFlag {
	case "tinca":
	case "classic":
		kind = tinca.KindClassic
	case "nojournal":
		kind = tinca.KindClassicNoJournal
	default:
		fmt.Fprintln(os.Stderr, "tincafs: unknown -kind", *kindFlag)
		os.Exit(2)
	}

	cfg := tinca.StackConfig{
		Kind:     kind,
		NVMBytes: *nvmMB << 20,
		FSBlocks: uint64(*fsMB) << 20 / tinca.BlockSize,
		Options:  tinca.CacheOptions{Observe: *observe || *metricsAddr != "", CommitRings: *rings},
	}
	s, err := tinca.NewStack(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tincafs:", err)
		os.Exit(1)
	}
	fmt.Printf("tincafs: %s stack, %dMB NVM cache, %dMB file system\n", *kindFlag, *nvmMB, *fsMB)
	if *metricsAddr != "" {
		addr, err := s.ServeMetrics(*metricsAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tincafs:", err)
			os.Exit(1)
		}
		fmt.Printf("serving http://%s/metrics and /debug/pprof/\n", addr)
	}

	rng := sim.NewRand(1)
	in := bufio.NewScanner(os.Stdin)
	for {
		fmt.Print("tinca> ")
		if !in.Scan() {
			return
		}
		fields := strings.Fields(in.Text())
		if len(fields) == 0 {
			continue
		}
		cmd, args := fields[0], fields[1:]
		if err := run(s, cmd, args, rng); err != nil {
			if err == errQuit {
				return
			}
			fmt.Println("error:", err)
		}
	}
}

var errQuit = fmt.Errorf("quit")

func run(s *tinca.Stack, cmd string, args []string, rng interface{ Int63n(int64) int64 }) error {
	need := func(n int) error {
		if len(args) < n {
			return fmt.Errorf("%s: need %d argument(s)", cmd, n)
		}
		return nil
	}
	switch cmd {
	case "help":
		fmt.Println("mkdir ls put cat append rm mv stat truncate sync crash recover fsck stats lat time help quit")
	case "quit", "exit":
		return errQuit
	case "mkdir":
		if err := need(1); err != nil {
			return err
		}
		return s.FS.MkdirAll(args[0])
	case "ls":
		dir := "/"
		if len(args) > 0 {
			dir = args[0]
		}
		names, err := s.FS.ReadDir(dir)
		if err != nil {
			return err
		}
		for _, n := range names {
			info, err := s.FS.Stat(strings.TrimSuffix(dir, "/") + "/" + n)
			if err != nil {
				return err
			}
			kind := "f"
			if info.IsDir {
				kind = "d"
			}
			fmt.Printf("%s %10d  %s\n", kind, info.Size, n)
		}
	case "put":
		if err := need(2); err != nil {
			return err
		}
		return s.FS.WriteFile(args[0], []byte(strings.Join(args[1:], " ")))
	case "append":
		if err := need(2); err != nil {
			return err
		}
		return s.FS.Append(args[0], []byte(strings.Join(args[1:], " ")+"\n"))
	case "cat":
		if err := need(1); err != nil {
			return err
		}
		data, err := s.FS.ReadFile(args[0])
		if err != nil {
			return err
		}
		fmt.Println(string(data))
	case "rm":
		if err := need(1); err != nil {
			return err
		}
		return s.FS.Remove(args[0])
	case "mv":
		if err := need(2); err != nil {
			return err
		}
		return s.FS.Rename(args[0], args[1])
	case "stat":
		if err := need(1); err != nil {
			return err
		}
		info, err := s.FS.Stat(args[0])
		if err != nil {
			return err
		}
		fmt.Printf("size=%d dir=%v nlink=%d mtime=%dns\n", info.Size, info.IsDir, info.Nlink, info.Mtime)
	case "truncate":
		if err := need(2); err != nil {
			return err
		}
		n, err := strconv.ParseUint(args[1], 10, 64)
		if err != nil {
			return err
		}
		return s.FS.Truncate(args[0], n)
	case "sync":
		return s.FS.Sync()
	case "crash":
		s.Crash(sim.NewRand(rng.Int63n(1<<30)), 0.5)
		fmt.Println("power failure injected; run 'recover' to bring the stack back")
	case "recover":
		if err := s.Remount(); err != nil {
			return err
		}
		fmt.Println("recovered")
	case "fsck":
		if s.FS == nil {
			return fmt.Errorf("not mounted (crashed? run 'recover')")
		}
		if err := s.FS.Check(); err != nil {
			return err
		}
		if s.TCache != nil {
			if err := s.TCache.CheckInvariants(); err != nil {
				return err
			}
		}
		fmt.Println("clean")
	case "stats":
		st := s.Stats()
		fmt.Printf("device: %d clflush, %d sfence, NVM %d/%d B w/r, disk %d/%d blks w/r\n",
			st.Device.CLFlushes, st.Device.SFences,
			st.Device.NVMBytesWritten, st.Device.NVMBytesRead,
			st.Device.DiskBlocksWrite, st.Device.DiskBlocksRead)
		if s.TCache != nil {
			c := st.Cache
			fmt.Printf("cache:  %d/%d read hit/miss (%d fast), %d/%d write hit/miss\n",
				c.ReadHits, c.ReadMisses, c.ReadHitFast, c.WriteHits, c.WriteMisses)
			fmt.Printf("        %d commits in %d seals, %d evictions (%d dirty), %d fill races, %d index grows\n",
				c.Commits, c.GroupSeals, c.Evictions, c.DirtyEvictions, c.FillRaces, c.IndexGrows)
			fmt.Printf("        read fast path: %d fast, %d slow, %d seqlock retries\n",
				c.ReadHitFast, c.ReadHitSlow, c.SeqlockRetries)
			fmt.Printf("views:  %d zero-copy, %d copied, %d deferred frees, %d open\n",
				c.ZeroCopyViews, c.CopiedViews, c.ViewDeferredFrees, c.OpenViews)
			if len(c.RingSeals) > 1 { // one ring: the commits-in-seals line above says it all
				fmt.Printf("rings:  %d commit rings, %d cross-shard txns, %d seal-lock conflicts\n",
					len(c.RingSeals), c.CrossShardTxns, c.RingSealConflicts)
				fmt.Printf("        seals/ring:")
				for _, n := range c.RingSeals {
					fmt.Printf(" %d", n)
				}
				fmt.Printf("\n        queued/ring:")
				for _, n := range c.RingQueueDepth {
					fmt.Printf(" %d", n)
				}
				fmt.Println()
			}
		}
		fmt.Printf("fs:     %d read ops, %d write ops, %d group commits, %d free blocks\n",
			st.FS.ReadOps, st.FS.WriteOps, st.FS.GroupCommits, st.FS.FreeBlocks)
	case "lat":
		if !s.Cfg.Observe {
			return fmt.Errorf("latency histograms are off; restart with -observe")
		}
		st := s.Stats()
		if st.FS.ReadLatency.Count > 0 {
			fmt.Printf("%-18s %s\n", "fs read op", st.FS.ReadLatency)
		}
		if st.FS.WriteLatency.Count > 0 {
			fmt.Printf("%-18s %s\n", "fs write op", st.FS.WriteLatency)
		}
		if st.Cache.CommitLatency.Count > 0 {
			fmt.Printf("%-18s %s\n", "cache commit", st.Cache.CommitLatency)
		}
		for _, p := range st.Cache.CommitPhases {
			fmt.Printf("  %-16s %s\n", p.Phase, p.LatencySummary)
		}
		if c := st.Cache; c.ReadHits > 0 {
			fmt.Printf("%-18s %d fast / %d slow hits, %d seqlock retries\n",
				"read fast path", c.ReadHitFast, c.ReadHitSlow, c.SeqlockRetries)
		}
	case "time":
		fmt.Println("simulated:", s.Clock.Now())
	default:
		return fmt.Errorf("unknown command %q (try help)", cmd)
	}
	return nil
}
