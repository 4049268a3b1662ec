// Deterministic trace generation and the compact textual encoding used
// by failure reproducers. A sweep failure is fully described by a
// ReplaySpec — stack kind, persist-op boundary, eviction probability,
// injected fault, the sweep's layout options, and the exact op trace —
// which round-trips through a single shell-safe line, so
// `tincacrash -replay '<line>'` re-executes the failing trial
// byte-for-byte.
package crash

import (
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"

	"tinca/internal/core"
	"tinca/internal/sim"
	"tinca/internal/stack"
)

// GenTrace deterministically generates an n-op trace from seed: the ops a
// Generator produces when every op is acknowledged in order. The same
// (seed, n) always yields the same trace, which is what lets a sweep
// replay it once per boundary.
func GenTrace(seed int64, n int) []Op { return GenTraceNS(seed, n, "") }

// GenTraceNS is GenTrace within the "/<ns>-" path namespace (see
// NewGeneratorNS).
func GenTraceNS(seed int64, n int, ns string) []Op {
	rng := sim.NewRand(seed)
	g := NewGeneratorNS(rng, ns)
	m := NewModel()
	ops := make([]Op, 0, n)
	for i := 0; i < n; i++ {
		o := g.Next(m)
		m.Apply(o)
		ops = append(ops, o)
	}
	return ops
}

// Op encoding: one field-colon-separated token per op, ops joined by "|".
//
//	c:<path>             create
//	w:<path>:<off>:<data> write
//	a:<path>:<data>      append
//	t:<path>:<size>      truncate
//	d:<path>             remove
//	r:<path>:<path2>     rename
//	l:<path>:<path2>     link
//	L:<path>:<path2>     link expected to fail (WantErr)
//
// <data> is either "p<len>.<stamp>" for the generator's patterned fill
// (byte i = stamp^i) or "x<hex>" for arbitrary bytes.
var opCodes = [...]string{"c", "w", "a", "t", "d", "r", "l"}

func encodeData(d []byte) string {
	if len(d) > 0 {
		stamp := d[0]
		ok := true
		for i, b := range d {
			if b != stamp^byte(i) {
				ok = false
				break
			}
		}
		if ok {
			return fmt.Sprintf("p%d.%d", len(d), stamp)
		}
	}
	return "x" + hex.EncodeToString(d)
}

func decodeData(s string) ([]byte, error) {
	if strings.HasPrefix(s, "p") {
		dot := strings.IndexByte(s, '.')
		if dot < 0 {
			return nil, fmt.Errorf("crash: bad patterned data %q", s)
		}
		n, err := strconv.Atoi(s[1:dot])
		if err != nil || n < 0 {
			return nil, fmt.Errorf("crash: bad patterned length %q", s)
		}
		stamp, err := strconv.Atoi(s[dot+1:])
		if err != nil || stamp < 0 || stamp > 255 {
			return nil, fmt.Errorf("crash: bad patterned stamp %q", s)
		}
		d := make([]byte, n)
		for i := range d {
			d[i] = byte(stamp) ^ byte(i)
		}
		return d, nil
	}
	if strings.HasPrefix(s, "x") {
		return hex.DecodeString(s[1:])
	}
	return nil, fmt.Errorf("crash: bad data encoding %q", s)
}

// EncodeOp renders one op as a compact token. Paths containing the
// separator characters are rejected (the generator never produces them).
func EncodeOp(o Op) (string, error) {
	for _, p := range []string{o.Path, o.Path2} {
		if strings.ContainsAny(p, ":|= \t\n") {
			return "", fmt.Errorf("crash: unencodable path %q", p)
		}
	}
	if o.WantErr && o.Kind != opLink {
		return "", fmt.Errorf("crash: WantErr only encodable for link, got %v", o)
	}
	switch o.Kind {
	case opCreate:
		return "c:" + o.Path, nil
	case opWrite:
		return fmt.Sprintf("w:%s:%d:%s", o.Path, o.Off, encodeData(o.Data)), nil
	case opAppend:
		return fmt.Sprintf("a:%s:%s", o.Path, encodeData(o.Data)), nil
	case opTruncate:
		return fmt.Sprintf("t:%s:%d", o.Path, o.Size), nil
	case opRemove:
		return "d:" + o.Path, nil
	case opRename:
		return fmt.Sprintf("r:%s:%s", o.Path, o.Path2), nil
	case opLink:
		code := "l"
		if o.WantErr {
			code = "L"
		}
		return fmt.Sprintf("%s:%s:%s", code, o.Path, o.Path2), nil
	default:
		return "", fmt.Errorf("crash: unknown op kind %d", o.Kind)
	}
}

// DecodeOp parses one EncodeOp token.
func DecodeOp(s string) (Op, error) {
	f := strings.Split(s, ":")
	fail := func() (Op, error) { return Op{}, fmt.Errorf("crash: bad op token %q", s) }
	if len(f) < 2 {
		return fail()
	}
	switch f[0] {
	case "c":
		if len(f) != 2 {
			return fail()
		}
		return Op{Kind: opCreate, Path: f[1]}, nil
	case "w":
		if len(f) != 4 {
			return fail()
		}
		off, err := strconv.ParseUint(f[2], 10, 64)
		if err != nil {
			return fail()
		}
		data, err := decodeData(f[3])
		if err != nil {
			return Op{}, err
		}
		return Op{Kind: opWrite, Path: f[1], Off: off, Data: data}, nil
	case "a":
		if len(f) != 3 {
			return fail()
		}
		data, err := decodeData(f[2])
		if err != nil {
			return Op{}, err
		}
		return Op{Kind: opAppend, Path: f[1], Data: data}, nil
	case "t":
		if len(f) != 3 {
			return fail()
		}
		size, err := strconv.ParseUint(f[2], 10, 64)
		if err != nil {
			return fail()
		}
		return Op{Kind: opTruncate, Path: f[1], Size: size}, nil
	case "d":
		if len(f) != 2 {
			return fail()
		}
		return Op{Kind: opRemove, Path: f[1]}, nil
	case "r":
		if len(f) != 3 {
			return fail()
		}
		return Op{Kind: opRename, Path: f[1], Path2: f[2]}, nil
	case "l", "L":
		if len(f) != 3 {
			return fail()
		}
		return Op{Kind: opLink, Path: f[1], Path2: f[2], WantErr: f[0] == "L"}, nil
	default:
		return fail()
	}
}

// EncodeTrace renders a trace as "|"-joined op tokens.
func EncodeTrace(ops []Op) (string, error) {
	toks := make([]string, len(ops))
	for i, o := range ops {
		t, err := EncodeOp(o)
		if err != nil {
			return "", err
		}
		toks[i] = t
	}
	return strings.Join(toks, "|"), nil
}

// DecodeTrace parses an EncodeTrace string.
func DecodeTrace(s string) ([]Op, error) {
	if s == "" {
		return nil, nil
	}
	toks := strings.Split(s, "|")
	ops := make([]Op, len(toks))
	for i, t := range toks {
		o, err := DecodeOp(t)
		if err != nil {
			return nil, err
		}
		ops[i] = o
	}
	return ops, nil
}

// ReplaySpec pins down one serial crash trial exactly.
type ReplaySpec struct {
	Kind     stack.Kind
	Boundary int64 // persist-op boundary (ArmCrash argument)
	EvictP   float64
	Fault    core.Fault
	Ckpt     bool  // checkpoint writer on at every commit point
	Rings    int   // CommitRings (multi-ring layout) when > 1
	L3       bool  // L3 object tier behind a small L2 disk
	Seed     int64 // sweep seed; combined with Boundary/EvictP for the crash image
	Trace    []Op
}

// config is the sweep configuration whose trial r reproduces (the inverse
// of SweepConfig.replaySpec).
func (r ReplaySpec) config() SweepConfig {
	return SweepConfig{Kind: r.Kind, Seed: r.Seed, Fault: r.Fault, Checkpoint: r.Ckpt, Rings: r.Rings, L3: r.L3}
}

func kindName(k stack.Kind) string {
	switch k {
	case stack.Tinca:
		return "tinca"
	case stack.Classic:
		return "classic"
	case stack.ClassicNoJournal:
		return "classic-nojournal"
	default:
		return fmt.Sprintf("kind%d", int(k))
	}
}

// ParseKind maps a stack-kind name ("tinca", "classic",
// "classic-nojournal") to its value.
func ParseKind(s string) (stack.Kind, error) {
	switch s {
	case "tinca":
		return stack.Tinca, nil
	case "classic":
		return stack.Classic, nil
	case "classic-nojournal":
		return stack.ClassicNoJournal, nil
	default:
		return 0, fmt.Errorf("crash: unknown stack kind %q", s)
	}
}

func faultName(f core.Fault) string {
	switch f {
	case core.FaultNone:
		return "none"
	case core.FaultSkipDataFlush:
		return "skip-data-flush"
	default:
		return fmt.Sprintf("fault%d", int(f))
	}
}

// ParseFault maps a fault name ("none", "skip-data-flush") to its value.
func ParseFault(s string) (core.Fault, error) {
	switch s {
	case "none", "":
		return core.FaultNone, nil
	case "skip-data-flush":
		return core.FaultSkipDataFlush, nil
	default:
		return 0, fmt.Errorf("crash: unknown fault %q", s)
	}
}

// String renders the spec as a single shell-safe line accepted by
// ParseReplaySpec (and by `tincacrash -replay`).
func (r ReplaySpec) String() string {
	trace, err := EncodeTrace(r.Trace)
	if err != nil {
		trace = "<unencodable:" + err.Error() + ">"
	}
	ck := ""
	if r.Ckpt {
		ck = " ckpt=1"
	}
	if r.Rings > 1 {
		ck += fmt.Sprintf(" rings=%d", r.Rings)
	}
	if r.L3 {
		ck += " l3=1"
	}
	return fmt.Sprintf("kind=%s boundary=%d evictp=%s fault=%s%s seed=%d trace=%s",
		kindName(r.Kind), r.Boundary,
		strconv.FormatFloat(r.EvictP, 'g', -1, 64),
		faultName(r.Fault), ck, r.Seed, trace)
}

// ParseReplaySpec parses a ReplaySpec.String line.
func ParseReplaySpec(s string) (ReplaySpec, error) {
	var r ReplaySpec
	for _, field := range strings.Fields(s) {
		eq := strings.IndexByte(field, '=')
		if eq < 0 {
			return r, fmt.Errorf("crash: bad replay field %q", field)
		}
		key, val := field[:eq], field[eq+1:]
		var err error
		switch key {
		case "kind":
			r.Kind, err = ParseKind(val)
		case "boundary":
			r.Boundary, err = strconv.ParseInt(val, 10, 64)
		case "evictp":
			r.EvictP, err = strconv.ParseFloat(val, 64)
		case "fault":
			r.Fault, err = ParseFault(val)
		case "ckpt":
			r.Ckpt = val == "1" || val == "true"
		case "rings":
			r.Rings, err = strconv.Atoi(val)
		case "l3":
			r.L3 = val == "1" || val == "true"
		case "seed":
			r.Seed, err = strconv.ParseInt(val, 10, 64)
		case "trace":
			r.Trace, err = DecodeTrace(val)
		default:
			return r, fmt.Errorf("crash: unknown replay field %q", key)
		}
		if err != nil {
			return r, err
		}
	}
	if len(r.Trace) == 0 {
		return r, fmt.Errorf("crash: replay spec %q has no trace", s)
	}
	return r, nil
}

// Replay re-runs the serial trial a spec describes. It returns the
// verification error the trial produces (nil if the trial is consistent)
// and the trial result.
func Replay(r ReplaySpec) (Result, error) {
	out, err := runSerialTrial(r.config().trial(r.Trace, r.Boundary, r.EvictP))
	res := Result{Crashed: out.crashed, OpsAcked: out.acked}
	if out.inflight != nil {
		res.Inflight = out.inflight.String()
	}
	return res, err
}
