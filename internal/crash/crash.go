// Package crash is the model-based crash-consistency harness of DESIGN.md
// §5. It drives a full storage stack with random sequences of file-system
// operations while maintaining a shadow model of the *acknowledged* state,
// injects a power failure at an NVM persist-op boundary, recovers, and
// verifies:
//
//   - structural integrity (fsck; Tinca cache invariants);
//   - durability: every operation proven durable is fully visible;
//   - atomicity: the recovered state equals the shadow model after some
//     acknowledged prefix, or after that prefix plus the one operation in
//     flight — never a hybrid.
//
// Trial, Sweep, Replay, Minimize and Blackbox all run one trial runner
// and one oracle (sweep.go). With per-operation commits
// (GroupCommitBlocks = 0) operation = transaction = unit of atomicity and
// every acked op is durable, so the oracle is exact: the model before or
// after the in-flight operation.
package crash

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"tinca/internal/fs"
	"tinca/internal/stack"
)

// Op kinds the harness issues.
const (
	opCreate = iota
	opWrite
	opAppend
	opTruncate
	opRemove
	opRename
	opLink
	numOps
)

var opNames = [...]string{"create", "write", "append", "truncate", "remove", "rename", "link"}

// Op is one file-system operation.
type Op struct {
	Kind    int
	Path    string
	Path2   string // rename/link target
	Off     uint64
	Data    []byte
	Size    uint64 // truncate
	WantErr bool   // the FS must reject this op (e.g. link over an existing name)
}

func (o Op) String() string {
	if o.Path2 != "" {
		if o.WantErr {
			return fmt.Sprintf("%s!(%s,%s)", opNames[o.Kind], o.Path, o.Path2)
		}
		return fmt.Sprintf("%s(%s,%s)", opNames[o.Kind], o.Path, o.Path2)
	}
	return fmt.Sprintf("%s(%s)", opNames[o.Kind], o.Path)
}

// Model is the shadow of acknowledged file contents. Hard links are
// modelled faithfully: linked paths share one content cell, so a write
// through any name is visible through all of them.
type Model struct {
	files map[string]*[]byte
}

// NewModel returns an empty model.
func NewModel() Model { return Model{files: make(map[string]*[]byte)} }

// Len reports the number of paths.
func (m Model) Len() int { return len(m.files) }

// Clone deep-copies the model, preserving the alias structure of hard
// links.
func (m Model) Clone() Model {
	c := NewModel()
	remap := make(map[*[]byte]*[]byte, len(m.files))
	for p, cell := range m.files {
		nc, ok := remap[cell]
		if !ok {
			d := append([]byte(nil), *cell...)
			nc = &d
			remap[cell] = nc
		}
		c.files[p] = nc
	}
	return c
}

// Apply updates the model with op's effect. Ops carrying WantErr are
// expected to be rejected by the file system, so they leave the model
// unchanged.
func (m Model) Apply(o Op) {
	if o.WantErr {
		return
	}
	switch o.Kind {
	case opCreate:
		var d []byte
		m.files[o.Path] = &d
	case opWrite:
		cell := m.files[o.Path]
		d := *cell
		end := o.Off + uint64(len(o.Data))
		if uint64(len(d)) < end {
			nd := make([]byte, end)
			copy(nd, d)
			d = nd
		}
		copy(d[o.Off:], o.Data)
		*cell = d
	case opAppend:
		cell := m.files[o.Path]
		*cell = append(*cell, o.Data...)
	case opTruncate:
		cell := m.files[o.Path]
		d := *cell
		if o.Size <= uint64(len(d)) {
			*cell = append([]byte(nil), d[:o.Size]...)
		} else {
			nd := make([]byte, o.Size)
			copy(nd, d)
			*cell = nd
		}
	case opRemove:
		delete(m.files, o.Path)
	case opRename:
		src := m.files[o.Path]
		if dst, ok := m.files[o.Path2]; ok && dst == src {
			// POSIX rename(2): source and target are the same inode
			// (hard links, or the same path) — no-op, both names remain.
			return
		}
		// Renaming onto an existing name atomically replaces the target.
		m.files[o.Path2] = src
		delete(m.files, o.Path)
	case opLink:
		m.files[o.Path2] = m.files[o.Path]
	}
}

// Issue executes op against the file system.
func Issue(f *fs.FS, o Op) error {
	switch o.Kind {
	case opCreate:
		return f.Create(o.Path)
	case opWrite:
		return f.WriteAt(o.Path, o.Off, o.Data)
	case opAppend:
		return f.Append(o.Path, o.Data)
	case opTruncate:
		return f.Truncate(o.Path, o.Size)
	case opRemove:
		return f.Remove(o.Path)
	case opRename:
		return f.Rename(o.Path, o.Path2)
	case opLink:
		return f.Link(o.Path, o.Path2)
	default:
		panic("crash: unknown op")
	}
}

// Generator produces a random valid operation against the current model.
type Generator struct {
	rng    *rand.Rand
	ns     string // path namespace prefix; "" for the classic flat layout
	nextID int
}

// NewGenerator seeds a generator.
func NewGenerator(rng *rand.Rand) *Generator { return &Generator{rng: rng} }

// NewGeneratorNS seeds a generator whose paths all carry the namespace
// prefix "/<ns>-", so several concurrent generators can share one file
// system without colliding (the prefix oracle verifies each
// namespace independently).
func NewGeneratorNS(rng *rand.Rand, ns string) *Generator {
	return &Generator{rng: rng, ns: ns}
}

func (g *Generator) newPath(class string) string {
	g.nextID++
	if g.ns == "" {
		return fmt.Sprintf("/%s%04d", class, g.nextID)
	}
	return fmt.Sprintf("/%s-%s%04d", g.ns, class, g.nextID)
}

// Next returns a random operation valid for the model.
func (g *Generator) Next(m Model) Op {
	paths := make([]string, 0, len(m.files))
	for p := range m.files {
		paths = append(paths, p)
	}
	// Sort for determinism of the pick across map iteration orders.
	sort.Strings(paths)

	kind := g.rng.Intn(numOps)
	if len(paths) == 0 || (len(paths) < 4 && g.rng.Intn(2) == 0) {
		kind = opCreate
	}
	switch kind {
	case opCreate:
		return Op{Kind: opCreate, Path: g.newPath("f")}
	default:
		p := paths[g.rng.Intn(len(paths))]
		switch kind {
		case opWrite:
			return Op{Kind: opWrite, Path: p,
				Off:  uint64(g.rng.Intn(20000)),
				Data: patterned(g.rng, 1+g.rng.Intn(9000))}
		case opAppend:
			return Op{Kind: opAppend, Path: p, Data: patterned(g.rng, 1+g.rng.Intn(6000))}
		case opTruncate:
			return Op{Kind: opTruncate, Path: p, Size: uint64(g.rng.Intn(10000))}
		case opRemove:
			return Op{Kind: opRemove, Path: p}
		case opLink:
			if len(paths) >= 2 && g.rng.Intn(4) == 0 {
				// Link onto an existing name (possibly an alias of the
				// source): POSIX link(2) refuses it, so this probes the
				// FS error path without changing any state.
				return Op{Kind: opLink, Path: p,
					Path2: paths[g.rng.Intn(len(paths))], WantErr: true}
			}
			return Op{Kind: opLink, Path: p, Path2: g.newPath("l")}
		default: // rename
			if len(paths) >= 2 && g.rng.Intn(3) == 0 {
				// Rename onto an existing name: POSIX rename(2)
				// atomically replaces the target, or no-ops when source
				// and target are hard links of the same inode.
				return Op{Kind: opRename, Path: p,
					Path2: paths[g.rng.Intn(len(paths))]}
			}
			return Op{Kind: opRename, Path: p, Path2: g.newPath("r")}
		}
	}
}

func patterned(r *rand.Rand, n int) []byte {
	d := make([]byte, n)
	stamp := byte(r.Intn(255) + 1)
	for i := range d {
		d[i] = stamp ^ byte(i)
	}
	return d
}

// Result summarizes one trial.
type Result struct {
	Crashed  bool
	OpsAcked int
	Inflight string
}

// Trial runs one randomized crash trial on a fresh stack of the given
// kind: ops random operations with a crash armed at a random point,
// recovery, and full verification. A nil error means the trial was
// consistent.
func Trial(kind stack.Kind, seed int64, ops int, evictP float64) (Result, error) {
	rng := rand.New(rand.NewSource(seed))
	ex, err := runTrial(trialSpec{
		cfg:       SweepConfig{Kind: kind},
		traces:    [][]Op{GenTrace(seed, ops)},
		boundary:  rng.Int63n(int64(ops)*100) + 50,
		evictP:    evictP,
		imageSeed: rng.Int63(),
	})
	return ex.result(), err
}

// Verify compares the file system against the model exactly: every model
// file exists with identical contents, and no unexpected files exist.
func Verify(f *fs.FS, m Model) error { return VerifyPrefix(f, m, "/") }

// VerifyPrefix compares the subset of the file system whose paths start
// with prefix against the model: every model file exists with identical
// contents, and no unexpected files exist under the prefix. The
// prefix oracle uses one namespace prefix per worker ("/" when serial).
func VerifyPrefix(f *fs.FS, m Model, prefix string) error {
	names, err := f.ReadDir("/")
	if err != nil {
		return err
	}
	seen := map[string]bool{}
	for _, n := range names {
		p := "/" + n
		if !strings.HasPrefix(p, prefix) {
			continue
		}
		info, err := f.Stat(p)
		if err != nil {
			return fmt.Errorf("stat %s: %w", p, err)
		}
		if info.IsDir {
			continue
		}
		cell, ok := m.files[p]
		if !ok {
			return fmt.Errorf("unexpected file %s (size %d)", p, info.Size)
		}
		want := *cell
		seen[p] = true
		got, err := f.ReadFile(p)
		if err != nil {
			return fmt.Errorf("read %s: %w", p, err)
		}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("%s: %d bytes, want %d (first diff at %d)",
				p, len(got), len(want), firstDiff(got, want))
		}
	}
	for p := range m.files {
		if !seen[p] {
			return fmt.Errorf("model file %s missing", p)
		}
	}
	return nil
}

func firstDiff(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}
