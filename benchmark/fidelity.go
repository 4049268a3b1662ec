package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
)

//go:embed paper_reference.json
var paperReferenceJSON []byte

// printFidelity states the model's error against the paper beside the
// ratios it derives from a traced set's two fio_write_heavy workloads. It
// gates nothing: the repository holds these three reference values, so the
// error is a number to report, not a bound to enforce.
func printFidelity(tinca, classicRun result) {
	var ref struct {
		Fio struct {
			IOPS   float64 `json:"iops_ratio"`
			Flush  float64 `json:"clflush_fewer_pct"`
			DiskWr float64 `json:"disk_writes_fewer_pct"`
		} `json:"fio_rw_3_7"`
	}
	if err := json.Unmarshal(paperReferenceJSON, &ref); err != nil {
		fmt.Println("fidelity: paper_reference.json:", err)
		return
	}
	// One client: ops per simulated second is the inverse of the layers'
	// summed simulated self time per op.
	simNS := func(r result) (ns float64) {
		for _, l := range tracedLayers {
			ns += r.metrics[l+".self_sim_ns_per_op"]
		}
		return ns
	}
	fewer := func(name string) float64 {
		return 100 * (1 - tinca.metrics[name]/classicRun.metrics[name])
	}
	rows := []struct {
		what                 string
		got, paper           float64
		unit, errUnit, basis string
	}{
		{"sim_ops_per_s ratio", simNS(classicRun) / simNS(tinca), ref.Fio.IOPS, "x", "x", "Tinca / Classic"},
		{"clflush_per_op fewer", fewer("pmem.clflush_per_op"), ref.Fio.Flush, "%", " points", "1 - Tinca / Classic"},
		{"disk_writes_per_op fewer", fewer("blockdev.blocks_written_per_op"), ref.Fio.DiskWr, "%", " points", "1 - Tinca / Classic"},
	}
	fmt.Println("== fidelity against the paper's Fig 7 at R/W 3/7 (ungated)")
	for _, r := range rows {
		fmt.Printf("  %-26s model %8.2f%s  paper %6.2f%s  error %+7.2f%s  (%s)\n",
			r.what, r.got, r.unit, r.paper, r.unit, r.got-r.paper, r.errUnit, r.basis)
	}
}
