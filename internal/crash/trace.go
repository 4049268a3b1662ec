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

// opArity is the field count of each EncodeOp token, code included.
var opArity = map[string]int{"c": 2, "d": 2, "a": 3, "t": 3, "r": 3, "l": 3, "L": 3, "w": 4}

// DecodeOp parses one EncodeOp token.
func DecodeOp(s string) (Op, error) {
	f := strings.Split(s, ":")
	bad := fmt.Errorf("crash: bad op token %q", s)
	if len(f) != opArity[f[0]] {
		return Op{}, bad
	}
	o := Op{Path: f[1]}
	var err error
	switch f[0] {
	case "c":
		o.Kind = opCreate
	case "d":
		o.Kind = opRemove
	case "w":
		o.Kind = opWrite
		if o.Off, err = strconv.ParseUint(f[2], 10, 64); err != nil {
			return Op{}, bad
		}
		o.Data, err = decodeData(f[3])
	case "a":
		o.Kind = opAppend
		o.Data, err = decodeData(f[2])
	case "t":
		o.Kind = opTruncate
		if o.Size, err = strconv.ParseUint(f[2], 10, 64); err != nil {
			return Op{}, bad
		}
	case "r":
		o.Kind, o.Path2 = opRename, f[2]
	default: // "l", "L"
		o.Kind, o.Path2, o.WantErr = opLink, f[2], f[0] == "L"
	}
	if err != nil {
		return Op{}, err
	}
	return o, nil
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

// bindOptions is the one place the sweep options a reproducer line
// carries meet SweepConfig: it copies each from cfg into r when toSpec,
// from r into cfg otherwise. Each option is listed once, so none can be
// carried in one direction only.
func bindOptions(r *ReplaySpec, cfg *SweepConfig, toSpec bool) {
	bind(&r.Kind, &cfg.Kind, toSpec)
	bind(&r.Seed, &cfg.Seed, toSpec)
	bind(&r.Fault, &cfg.Fault, toSpec)
	bind(&r.Ckpt, &cfg.Checkpoint, toSpec)
	bind(&r.Rings, &cfg.Rings, toSpec)
	bind(&r.L3, &cfg.L3, toSpec)
}

func bind[T any](spec, cfg *T, toSpec bool) {
	if toSpec {
		*spec = *cfg
	} else {
		*cfg = *spec
	}
}

func kindName(k stack.Kind) string { return strings.ToLower(k.String()) }

// ParseKind maps a stack-kind name ("tinca", "classic",
// "classic-nojournal") to its value.
func ParseKind(s string) (stack.Kind, error) {
	for k := stack.Tinca; k <= stack.ClassicNoJournal; k++ {
		if kindName(k) == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("crash: unknown stack kind %q", s)
}

// faultNames names each core.Fault on reproducer lines and the CLI.
var faultNames = [...]string{core.FaultNone: "none", core.FaultSkipDataFlush: "skip-data-flush"}

func faultName(f core.Fault) string {
	if f >= 0 && int(f) < len(faultNames) {
		return faultNames[f]
	}
	return fmt.Sprintf("fault%d", int(f))
}

// ParseFault maps a fault name ("none" or empty, "skip-data-flush") to
// its value.
func ParseFault(s string) (core.Fault, error) {
	if s == "" {
		return core.FaultNone, nil
	}
	for f, name := range faultNames {
		if name == s {
			return core.Fault(f), nil
		}
	}
	return 0, fmt.Errorf("crash: unknown fault %q", s)
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
	var cfg SweepConfig
	bindOptions(&r, &cfg, false)
	return r, cfg.validate()
}

// Replay re-runs the serial trial a spec describes. It returns the
// verification error the trial produces (nil if the trial is consistent)
// and the trial result.
func Replay(r ReplaySpec) (Result, error) {
	var cfg SweepConfig
	bindOptions(&r, &cfg, false)
	ex, err := runTrial(cfg.trial([][]Op{r.Trace}, r.Boundary, r.EvictP))
	return ex.result(), err
}
