package main

import (
	"maps"
	"testing"
	"time"
)

// measureOnce sets the workload up on a fresh rig, traced or not, runs a
// fixed number of ops and returns the rig's counters over the phase.
func measureOnce(t *testing.T, name string, cfg runConfig, traced bool) (*rig, counts) {
	t.Helper()
	w, err := selectWorkloads(name)
	if err != nil {
		t.Fatal(err)
	}
	r, sc, _, err := setUp(w[0].spec, cfg, traced)
	if err != nil {
		t.Fatalf("%s: set-up: %v", name, err)
	}
	before := r.counters()
	if traced {
		r.tr.start()
	}
	ph := sc.measure(cfg.stopFrom(time.Now()))
	if traced {
		r.tr.on = false
	}
	if ph.failed != 0 {
		t.Fatalf("%s: %d of %d ops failed", name, ph.failed, ph.ops)
	}
	return r, r.counters().sub(before)
}

// The traced stack is assembled in rig.go from the public constructors with
// backend glue copied from internal/stack. It must yield the very numbers
// stack.New's stack does, or the per-layer metrics explain a different
// system than the end-to-end metrics measure — and tracing must not perturb
// what it observes.
func TestTracedStackMatchesStackNew(t *testing.T) {
	for _, name := range []string{"fio_write_heavy", "fio_write_heavy_classic", "tpcc"} {
		t.Run(name, func(t *testing.T) {
			cfg := runConfig{seed: 7, ops: 1024}
			plain, want := measureOnce(t, name, cfg, false)
			traced, got := measureOnce(t, name, cfg, true)
			delete(got, "user_bytes") // counted by the traced file handles only
			delete(want, "user_bytes")
			if !maps.Equal(got, want) {
				t.Errorf("counters over the measured phase differ:\n traced %v\n  plain %v", got, want)
			}

			// Whole-life totals, against the stack's own typed snapshot.
			st, c := plain.st.Stats(), traced.counters()
			for _, cmp := range []struct {
				what      string
				got, want int64
			}{
				{"SimulatedNS", c["sim_ns"], st.SimulatedNS},
				{"CLFlushes", c["clflush"], st.Device.CLFlushes},
				{"SFences", c["sfence"], st.Device.SFences},
				{"NVMBytesWritten", c["nvm_written"], st.Device.NVMBytesWritten},
				{"NVMBytesRead", c["nvm_read"], st.Device.NVMBytesRead},
				{"DiskBlocksWrite", c["disk_written"], st.Device.DiskBlocksWrite},
				{"DiskBlocksRead", c["disk_read"], st.Device.DiskBlocksRead},
			} {
				if cmp.got != cmp.want {
					t.Errorf("%s: traced stack %d, stack.New %d", cmp.what, cmp.got, cmp.want)
				}
			}
			if traced.tr.total == 0 {
				t.Error("the traced run recorded no span")
			}
		})
	}
}
