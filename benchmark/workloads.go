package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"tinca/internal/oltp"
	"tinca/internal/pmem"
	"tinca/internal/sim"
	"tinca/internal/stack"
)

// phaseResult is what a scenario's measured phase observed.
type phaseResult struct {
	ops      int64
	failed   int64
	hostRate float64            // median-segment ops per host second, summed over clients
	busy     time.Duration      // host time the clients' loops ran, summed over clients
	lat      latDist            // simulated latency per op
	host     *hist              // host latency per op, ns
	extra    map[string]float64 // workload-specific per-layer metrics
}

func singleClient(c clientRun) phaseResult {
	return phaseResult{ops: c.ops, failed: c.failed, hostRate: c.segmentRate(), busy: c.elapsed(), lat: c.lat, host: c.host}
}

// scenario is one workload set up on one rig: laid out, loaded, warmed.
type scenario interface {
	// measure runs the closed loops of the measured phase until st stops them.
	measure(st stop) phaseResult
	// verify re-reads what the phase left behind against the shadow copy
	// and returns checks made, checks failed and what went wrong.
	verify() (attempted, failed int64, problems []string)
}

// spec is how the common driver (run.go) sets a workload up.
type spec struct {
	kind    stack.Kind
	clients int
	build   func(r *rig, cfg runConfig) (scenario, error)
}

// ---- stamped blocks ------------------------------------------------------

// Every data block the benchmark writes carries one 8-byte stamp repeated
// at each 512-byte stride and zeroes elsewhere, so a block torn at sector
// granularity disagrees with itself and the shadow copy is one word per
// block.
const stampStride = 512

func stampBlock(buf []byte, stamp uint64) {
	for i := 0; i < len(buf); i += stampStride {
		binary.LittleEndian.PutUint64(buf[i:], stamp)
	}
}

// readStamp returns the block's stamp and whether every stride agrees.
func readStamp(buf []byte) (uint64, bool) {
	stamp := binary.LittleEndian.Uint64(buf)
	for i := stampStride; i < len(buf); i += stampStride {
		if binary.LittleEndian.Uint64(buf[i:]) != stamp {
			return stamp, false
		}
	}
	return stamp, true
}

const dataPath = "/bench.dat"

// stampedFile is one file of stamped blocks with its shadow.
type stampedFile struct {
	r      *rig
	blocks int64
	shadow []uint64
}

// layout writes the file in 64KB strides, as Fio's layout phase does.
func layoutStamped(r *rig, blocks int64, stampOf func(blk int64) uint64) (*stampedFile, error) {
	f := r.files[0]
	if err := f.Create(dataPath); err != nil {
		return nil, err
	}
	sf := &stampedFile{r: r, blocks: blocks, shadow: make([]uint64, blocks)}
	const chunkBlocks = 16
	buf := make([]byte, chunkBlocks*blockSize)
	for b := int64(0); b < blocks; b += chunkBlocks {
		n := min(chunkBlocks, blocks-b)
		for i := int64(0); i < n; i++ {
			sf.shadow[b+i] = stampOf(b + i)
			stampBlock(buf[i*blockSize:(i+1)*blockSize], sf.shadow[b+i])
		}
		if err := f.WriteAt(dataPath, uint64(b)*blockSize, buf[:n*blockSize]); err != nil {
			return nil, err
		}
	}
	return sf, f.Fsync(dataPath)
}

// verify reads every block back and compares all of its bytes.
func (sf *stampedFile) verify() (attempted, failed int64, problems []string) {
	got, want := make([]byte, blockSize), make([]byte, blockSize)
	for b := int64(0); b < sf.blocks; b++ {
		attempted++
		stampBlock(want, sf.shadow[b])
		_, err := sf.r.files[0].ReadAt(dataPath, uint64(b)*blockSize, got)
		if err != nil || !bytes.Equal(got, want) {
			failed++
			if len(problems) < 3 {
				problems = append(problems, fmt.Sprintf("verify: block %d differs from its shadow (err=%v)", b, err))
			}
		}
	}
	return attempted, failed, problems
}

// ---- fio: one client, uniform random aligned 4KB requests ---------------

type fioScenario struct {
	*stampedFile
	rng     *rand.Rand
	readPct int
	wbuf    []byte
	rbuf    []byte
}

// fioBuilder lays the file out and warms the stack with warmup requests of
// the same stream the measured phase continues.
func fioBuilder(fileBytes int64, readPct int, warmup int) func(*rig, runConfig) (scenario, error) {
	return func(r *rig, cfg runConfig) (scenario, error) {
		lay := sim.NewRand(cfg.seed + 1)
		sf, err := layoutStamped(r, fileBytes/blockSize, func(int64) uint64 { return lay.Uint64() })
		if err != nil {
			return nil, err
		}
		s := &fioScenario{stampedFile: sf, rng: sim.NewRand(cfg.seed), readPct: readPct,
			wbuf: make([]byte, blockSize), rbuf: make([]byte, blockSize)}
		for i := 0; i < warmup; i++ {
			if !s.step() {
				return nil, fmt.Errorf("fio warm-up: request %d failed", i)
			}
		}
		return s, nil
	}
}

func (s *fioScenario) step() bool {
	blk := s.rng.Int63n(s.blocks)
	f := s.r.files[0]
	if s.rng.Intn(100) < s.readPct {
		if _, err := f.ReadAt(dataPath, uint64(blk)*blockSize, s.rbuf); err != nil {
			return false
		}
		stamp, whole := readStamp(s.rbuf)
		return whole && stamp == s.shadow[blk]
	}
	stamp := s.rng.Uint64()
	stampBlock(s.wbuf, stamp)
	if err := f.WriteAt(dataPath, uint64(blk)*blockSize, s.wbuf); err != nil {
		return false
	}
	s.shadow[blk] = stamp
	return true
}

func (s *fioScenario) measure(st stop) phaseResult {
	return singleClient(closedLoop(s.r.clock, s.r.tr, 0, st, 1024, s.step))
}

// ---- tpcc: one user, the standard mix ------------------------------------

type tpccScenario struct {
	r       *rig
	eng     *oltp.Engine
	rng     *rand.Rand
	weights []int
}

func buildTPCC(r *rig, cfg runConfig) (scenario, error) {
	eng, err := oltp.Load(r.files[0], oltp.Config{Seed: cfg.seed})
	if err != nil {
		return nil, err
	}
	s := &tpccScenario{r: r, eng: eng, rng: sim.NewRand(cfg.seed),
		weights: []int{oltp.Mix.NewOrder, oltp.Mix.Payment, oltp.Mix.OrderStatus, oltp.Mix.Delivery, oltp.Mix.StockLevel}}
	for i := 0; i < 3_000; i++ {
		if !s.step() {
			return nil, fmt.Errorf("tpcc warm-up: transaction %d failed", i)
		}
	}
	return s, nil
}

func (s *tpccScenario) step() bool {
	var err error
	switch sim.Pick(s.rng, s.weights) {
	case 0:
		err = s.eng.NewOrder(s.rng)
	case 1:
		err = s.eng.Payment(s.rng)
	case 2:
		err = s.eng.OrderStatus(s.rng)
	case 3:
		err = s.eng.Delivery(s.rng)
	case 4:
		err = s.eng.StockLevel(s.rng)
	}
	return err == nil
}

func (s *tpccScenario) measure(st stop) phaseResult {
	return singleClient(closedLoop(s.r.clock, s.r.tr, 0, st, 64, s.step))
}

func (s *tpccScenario) verify() (attempted, failed int64, problems []string) {
	if err := s.eng.CheckConsistency(); err != nil {
		return 1, 1, []string{"tpcc: " + err.Error()}
	}
	return 1, 0, nil
}

// ---- rw_2client: a reader and a writer on one hot file -------------------

const hotFileBlocks = (8 << 20) / blockSize

type rw2Scenario struct {
	*stampedFile // shadow is the writer's alone while the phase runs
	readRng      *rand.Rand
	writeRng     *rand.Rand
}

func buildRW2(r *rig, cfg runConfig) (scenario, error) {
	lay := sim.NewRand(cfg.seed + 1)
	sf, err := layoutStamped(r, hotFileBlocks, func(int64) uint64 { return lay.Uint64() })
	if err != nil {
		return nil, err
	}
	s := &rw2Scenario{stampedFile: sf, readRng: sim.NewRand(cfg.seed), writeRng: sim.NewRand(cfg.seed + 2)}
	// Warm up one client after the other: set-up stays single-threaded and
	// so repeats exactly.
	read, write := s.reader(), s.writer()
	for i := 0; i < 50_000; i++ {
		if !read() {
			return nil, fmt.Errorf("rw_2client warm-up: read %d failed", i)
		}
	}
	for i := 0; i < 20_000; i++ {
		if !write() {
			return nil, fmt.Errorf("rw_2client warm-up: write %d failed", i)
		}
	}
	return s, nil
}

// reader returns client 0's step. A concurrent reader cannot know which
// write it raced, only that a block must agree with itself.
func (s *rw2Scenario) reader() func() bool {
	buf := make([]byte, blockSize)
	return func() bool {
		blk := s.readRng.Int63n(s.blocks)
		if _, err := s.r.files[0].ReadAt(dataPath, uint64(blk)*blockSize, buf); err != nil {
			return false
		}
		_, whole := readStamp(buf)
		return whole
	}
}

// writer returns client 1's step.
func (s *rw2Scenario) writer() func() bool {
	buf := make([]byte, blockSize)
	return func() bool {
		blk := s.writeRng.Int63n(s.blocks)
		stamp := s.writeRng.Uint64()
		stampBlock(buf, stamp)
		if err := s.r.files[1].WriteAt(dataPath, uint64(blk)*blockSize, buf); err != nil {
			return false
		}
		s.shadow[blk] = stamp
		return true
	}
}

// clientRateMetrics name the per-layer metrics holding client 0's (the
// reader's) and client 1's (the writer's) own rates.
var clientRateMetrics = [2]string{"workload.read_ops_per_s", "workload.write_ops_per_s"}

func (s *rw2Scenario) measure(st stop) phaseResult {
	var runs [2]clientRun
	steps := [2]func() bool{s.reader(), s.writer()}
	var wg sync.WaitGroup
	for i := range runs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runs[i] = closedLoop(s.r.clock, s.r.tr, i, st, 256, steps[i])
		}()
	}
	wg.Wait()
	res := phaseResult{lat: latDist{}, host: &hist{}, extra: map[string]float64{}}
	for i, c := range runs {
		rate := c.segmentRate()
		res.extra[clientRateMetrics[i]] = rate
		res.hostRate += rate
		res.ops += c.ops
		res.failed += c.failed
		res.busy += c.elapsed()
		res.lat.merge(c.lat)
		res.host.merge(c.host)
	}
	return res
}

// ---- crash_recover: write, fsync, power failure, remount, read back ------

const (
	crashCycleWrites = 5000
	crashFsyncEvery  = 64
)

type crashScenario struct {
	*stampedFile // shadow is the durable image: what the last remount showed
	rng          *rand.Rand
	seq          uint64 // stamps are write sequence numbers
	cyclePersist int64  // NVM persist ops of one uninterrupted cycle
	buf          []byte
	down         error // set when a remount failed: nothing can be read back
}

type seqWrite struct {
	seq uint64
	blk int64
}

func buildCrash(r *rig, cfg runConfig) (scenario, error) {
	sf, err := layoutStamped(r, hotFileBlocks, func(int64) uint64 { return 0 })
	if err != nil {
		return nil, err
	}
	s := &crashScenario{stampedFile: sf, rng: sim.NewRand(cfg.seed), buf: make([]byte, blockSize)}
	// Dry run of one cycle: warms the cache and sizes the crash countdown
	// so that the failure lands inside the cycle, mid-commit.
	before := r.mem.PersistOps()
	f := r.files[0]
	for i := 0; i < crashCycleWrites; i++ {
		w := s.nextWrite()
		if err := s.write(w); err != nil {
			return nil, err
		}
		s.shadow[w.blk] = w.seq
		if (i+1)%crashFsyncEvery == 0 {
			if err := f.Fsync(dataPath); err != nil {
				return nil, err
			}
		}
	}
	if err := f.Fsync(dataPath); err != nil {
		return nil, err
	}
	s.cyclePersist = r.mem.PersistOps() - before
	return s, nil
}

func (s *crashScenario) verify() (attempted, failed int64, problems []string) {
	if s.down != nil {
		return 1, 1, []string{"crash_recover: remount failed: " + s.down.Error()}
	}
	return s.stampedFile.verify()
}

func (s *crashScenario) nextWrite() seqWrite {
	s.seq++
	return seqWrite{seq: s.seq, blk: s.rng.Int63n(s.blocks)}
}

func (s *crashScenario) write(w seqWrite) error {
	stampBlock(s.buf, w.seq)
	return s.r.files[0].WriteAt(dataPath, uint64(w.blk)*blockSize, s.buf)
}

func (s *crashScenario) measure(st stop) phaseResult {
	r := s.r
	res := phaseResult{lat: latDist{}, host: &hist{}, extra: map[string]float64{}}
	var (
		cycleRates, recHostMS, recSimUS []float64
		scan, redo, undo, rebuild       []int64
		scanned, ringSpan               []int64
		redone, ackedLost               int64
		found                           = make([]uint64, s.blocks)
		whole                           = make([]bool, s.blocks)
	)
	// timed runs one op of the closed loop.
	start := time.Now()
	prev := start
	timed := func(op func() error) error {
		r.tr.beginIfOn(0, kOp)
		s0 := r.clock.Now()
		err := op()
		res.lat.add(int64(r.clock.Now() - s0))
		r.tr.endIfOn(0)
		now := time.Now()
		res.host.record(int64(now.Sub(prev)))
		prev = now
		res.ops++
		if err != nil {
			res.failed++
		}
		return err
	}

	for {
		cycleStart, opsBefore := time.Now(), res.ops
		var log []seqWrite
		var acked uint64 // highest seq a returned Fsync covers
		r.mem.ArmCrash(s.cyclePersist/10 + s.rng.Int63n(s.cyclePersist*8/10))
		crashed, _ := pmem.CatchCrash(func() {
			for i := 0; i < crashCycleWrites; i++ {
				w := s.nextWrite()
				log = append(log, w)
				timed(func() error { return s.write(w) })
				if (i+1)%crashFsyncEvery == 0 {
					if timed(func() error { return r.files[0].Fsync(dataPath) }) == nil {
						acked = w.seq
					}
				}
			}
		})
		if !crashed {
			r.mem.DisarmCrash()
		} else if r.tr != nil {
			r.tr.abandon()
		}
		r.crash(s.rng)

		r.tr.beginIfOn(0, kOp)
		h0, s0 := time.Now(), r.clock.Now()
		err := r.remount()
		recHostMS = append(recHostMS, float64(time.Since(h0))/1e6)
		recSimUS = append(recSimUS, float64(r.clock.Now()-s0)/1e3)
		r.tr.endIfOn(0)
		prev = time.Now() // the crash and the remount are no op's latency
		if err != nil {
			s.down = err
			res.failed++
			return res
		}
		rs := r.tcache.RecoveryStats()
		scan, redo = append(scan, rs.ScanNS), append(redo, rs.RedoNS)
		undo, rebuild = append(undo, rs.UndoNS), append(rebuild, rs.RebuildNS)
		scanned, ringSpan = append(scanned, rs.EntriesScanned), append(ringSpan, rs.RingSpan)
		if rs.RingSpan > 0 && rs.Redo {
			redone++
		}

		// Read every block back. Stamps are sequence numbers, commits are
		// atomic and ordered, so the image must be exactly the writes up to
		// some sequence number K, and K must cover every acked write.
		var k uint64
		for b := int64(0); b < s.blocks; b++ {
			timed(func() error {
				_, err := r.files[0].ReadAt(dataPath, uint64(b)*blockSize, s.buf)
				found[b], whole[b] = readStamp(s.buf)
				return err
			})
			k = max(k, found[b])
		}
		for _, w := range log {
			if w.seq <= k {
				s.shadow[w.blk] = w.seq
			} else if w.seq <= acked {
				ackedLost++
			}
		}
		for b := range found {
			if !whole[b] || found[b] != s.shadow[b] {
				res.failed++ // that read returned an image no prefix of the writes explains
			}
		}
		cycleRates = append(cycleRates, float64(res.ops-opsBefore)/time.Since(cycleStart).Seconds())
		if st.done(res.ops, time.Now()) {
			break
		}
	}
	res.failed += ackedLost
	res.busy = time.Since(start)
	res.hostRate = median(cycleRates)
	res.extra["workload.acked_lost"] = float64(ackedLost)
	res.extra["workload.recovery_host_ms"] = median(recHostMS)
	res.extra["workload.recovery_sim_us"] = median(recSimUS)
	res.extra["core.recovery_scan_sim_ns"] = medianInt(scan)
	res.extra["core.recovery_redo_sim_ns"] = medianInt(redo)
	res.extra["core.recovery_undo_sim_ns"] = medianInt(undo)
	res.extra["core.recovery_rebuild_sim_ns"] = medianInt(rebuild)
	res.extra["core.recovery_entries_scanned"] = medianInt(scanned)
	res.extra["core.recovery_ring_span"] = medianInt(ringSpan)
	res.extra["core.recovery_redo_pct"] = 100 * float64(redone) / float64(len(cycleRates))
	return res
}
