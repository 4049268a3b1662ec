package exp

import (
	"fmt"
	"sort"
)

// Runner is one experiment entry point.
type Runner func(Options) (*Table, error)

// Registry maps experiment names (as used by `tincabench -fig`) to their
// drivers, in the order DESIGN.md lists them.
var Registry = map[string]Runner{
	"table1":  func(Options) (*Table, error) { return Table1(), nil },
	"table2":  func(Options) (*Table, error) { return Table2(), nil },
	"3a":      Fig3a,
	"3b":      Fig3b,
	"4":       Fig4,
	"7":       Fig7,
	"8":       Fig8,
	"10":      Fig10,
	"11":      Fig11,
	"12a":     Fig12a,
	"12b":     Fig12b,
	"12c":     Fig12c,
	"13":      Fig13,
	"recover": Recoverability,
	"ablate":  Ablations,
	// Extensions beyond the paper (DESIGN.md §6 and motivation claims).
	"endurance":         Endurance,
	"clwb":              CLWB,
	"recovertime":       RecoveryTime,
	"modes":             JournalModes,
	"groupcommit":       GroupCommitScaling,
	"phases":            CommitPhaseBreakdown,
	"readhit":           ReadHitScaling,
	"indexscale":        IndexScale,
	"recoverybreakdown": RecoveryBreakdown,
	"recoveryscale":     RecoveryScale,
	"writerscaling":     WriterScaling,
}

// Names lists the registered experiments in a stable order.
func Names() []string {
	names := make([]string, 0, len(Registry))
	for n := range Registry {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return expOrder(names[i]) < expOrder(names[j]) })
	return names
}

func expOrder(n string) string {
	// tables first, then figures numerically, then extras.
	switch n {
	case "table1":
		return "00"
	case "table2":
		return "01"
	case "3a":
		return "03a"
	case "3b":
		return "03b"
	case "4":
		return "04"
	case "7":
		return "07"
	case "8":
		return "08"
	case "10":
		return "10"
	case "11":
		return "11"
	case "12a", "12b", "12c":
		return "12" + n[2:]
	case "13":
		return "13"
	case "recover":
		return "90"
	case "ablate":
		return "91"
	case "endurance":
		return "92"
	case "clwb":
		return "93"
	case "recovertime":
		return "94"
	case "modes":
		return "95"
	case "groupcommit":
		return "96"
	case "phases":
		return "97"
	case "readhit":
		return "985"
	case "indexscale":
		return "986"
	case "recoverybreakdown":
		return "987"
	case "recoveryscale":
		return "988"
	case "writerscaling":
		return "989"
	default:
		return "99" + n
	}
}

// Run looks up and executes one experiment.
func Run(name string, o Options) (*Table, error) {
	r, ok := Registry[name]
	if !ok {
		return nil, fmt.Errorf("exp: unknown experiment %q (have %v)", name, Names())
	}
	return r(o)
}
