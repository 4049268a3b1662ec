// Package cluster implements the distributed-storage substrates of the
// paper's Section 5.3: an HDFS-like file system (NameNode + DataNodes with
// pipeline replication, driven by TeraGen) and a GlusterFS-like replicated
// volume (client-side replication across bricks, driven by Filebench).
//
// Every data node runs a complete local storage stack — file system over
// Tinca or Classic over NVM over disk — exactly as in Figure 9 of the
// paper. Nodes are simulated in-process: each owns its own clock (a meter
// of local storage work) while the cluster maintains a wall clock that
// advances, per client operation, by the slowest replica's service time
// plus the 10GbE network cost.
package cluster

import (
	"fmt"
	"time"

	"tinca/internal/metrics"
	"tinca/internal/sim"
	"tinca/internal/stack"
)

// Config sizes a cluster.
type Config struct {
	Nodes      int           // number of data nodes (the paper uses 4)
	Node       stack.Config  // per-node storage stack configuration
	Replicas   int           // replication factor (1..Nodes)
	NetLatency time.Duration // per-message one-way latency (default 50µs)
	NetGbps    float64       // link speed (default 10, the paper's 10GbE)
}

func (c Config) withDefaults() Config {
	if c.Nodes == 0 {
		c.Nodes = 4
	}
	if c.Replicas == 0 {
		c.Replicas = 2
	}
	if c.NetLatency == 0 {
		c.NetLatency = 50 * time.Microsecond
	}
	if c.NetGbps == 0 {
		c.NetGbps = 10
	}
	return c
}

// Node is one data node: a complete local storage stack.
type Node struct {
	ID    int
	Stack *stack.Stack
	down  bool
}

// Down reports whether the node is marked failed.
func (n *Node) Down() bool { return n.down }

// Cluster is a set of data nodes plus the network/wall-clock model.
type Cluster struct {
	Cfg   Config
	Nodes []*Node
	// Wall is the cluster wall clock: per client operation it advances by
	// the slowest replica's storage time plus network cost. This is what
	// execution-time results (Figure 10(a)) are measured on.
	Wall *sim.Clock
	// NetRec counts network traffic.
	NetRec *metrics.Recorder
}

// New builds a cluster of freshly formatted nodes.
func New(cfg Config) (*Cluster, error) {
	cfg = cfg.withDefaults()
	if cfg.Replicas < 1 || cfg.Replicas > cfg.Nodes {
		return nil, fmt.Errorf("cluster: %d replicas on %d nodes", cfg.Replicas, cfg.Nodes)
	}
	c := &Cluster{
		Cfg:    cfg,
		Wall:   sim.NewClock(),
		NetRec: metrics.NewRecorder(),
	}
	for i := 0; i < cfg.Nodes; i++ {
		s, err := stack.New(cfg.Node)
		if err != nil {
			return nil, fmt.Errorf("cluster: node %d: %w", i, err)
		}
		c.Nodes = append(c.Nodes, &Node{ID: i, Stack: s})
	}
	return c, nil
}

// netCost charges the wall clock for moving n payload bytes over hops
// network hops (pipeline replication traverses one hop per replica;
// client-side replication sends the payload once per replica).
func (c *Cluster) netCost(n int64, hops int) {
	if hops <= 0 {
		hops = 1
	}
	transfer := time.Duration(float64(n*8) / (c.Cfg.NetGbps * 1e9) * 1e9)
	c.Wall.Advance(transfer + time.Duration(hops)*c.Cfg.NetLatency)
	c.NetRec.Add(metrics.NetBytes, n*int64(hops))
	c.NetRec.Add(metrics.NetMessages, int64(hops))
}

// ErrNodeDown is returned when an operation requires a node that is
// marked failed. Reads fail over to another replica; writes surface the
// error (this substrate does not implement self-healing resynchronisation,
// so silently skipping a write replica would leave it stale).
var ErrNodeDown = fmt.Errorf("cluster: node is down")

// SetNodeDown marks node id failed (true) or restored (false), for
// failover experiments. Restoring a node remounts its local stack,
// running crash recovery.
func (c *Cluster) SetNodeDown(id int, down bool) error {
	n := c.Nodes[id]
	if down && !n.down {
		n.Stack.Crash(nil, 0) // power failure on that node
		n.down = true
		return nil
	}
	if !down && n.down {
		if err := n.Stack.Remount(); err != nil {
			return err
		}
		n.down = false
	}
	return nil
}

// applyReplicated runs fn against each listed node and advances the wall
// clock by the slowest node's local service time (replicas work in
// parallel).
func (c *Cluster) applyReplicated(nodes []*Node, fn func(n *Node) error) error {
	var maxDelta time.Duration
	for _, n := range nodes {
		if n.down {
			return ErrNodeDown
		}
		t0 := n.Stack.Clock.Now()
		if err := fn(n); err != nil {
			return err
		}
		if d := n.Stack.Clock.Now() - t0; d > maxDelta {
			maxDelta = d
		}
	}
	c.Wall.Advance(maxDelta)
	return nil
}

// applyFirstUp runs fn against the first healthy node in the list (read
// failover) and charges its service time.
func (c *Cluster) applyFirstUp(nodes []*Node, fn func(n *Node) error) error {
	for _, n := range nodes {
		if n.down {
			continue
		}
		t0 := n.Stack.Clock.Now()
		err := fn(n)
		c.Wall.Advance(n.Stack.Clock.Now() - t0)
		return err
	}
	return ErrNodeDown
}

// Stats sums the typed device counters across every node. Snapshot
// covers everything else (e.g. network counters).
func (c *Cluster) Stats() stack.DeviceStats {
	var d stack.DeviceStats
	for _, n := range c.Nodes {
		d = d.Add(n.Stack.Stats().Device)
	}
	return d
}

// Snapshot sums the metric counters across every node plus the network.
func (c *Cluster) Snapshot() metrics.Snapshot {
	total := c.NetRec.Snapshot()
	for _, n := range c.Nodes {
		total = total.Add(n.Stack.Rec.Snapshot())
	}
	return total
}

// replicaSet deterministically picks r consecutive nodes starting at a
// position derived from key (GlusterFS-style distribute+replicate).
func (c *Cluster) replicaSet(key uint64, r int) []*Node {
	sets := c.Cfg.Nodes / r
	if sets == 0 {
		sets = 1
	}
	start := int(key%uint64(sets)) * r
	out := make([]*Node, 0, r)
	for i := 0; i < r; i++ {
		out = append(out, c.Nodes[(start+i)%c.Cfg.Nodes])
	}
	return out
}

// fnv1a hashes a path for replica-set selection.
func fnv1a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// Close flushes every node.
func (c *Cluster) Close() error {
	for _, n := range c.Nodes {
		if err := n.Stack.Close(); err != nil {
			return err
		}
	}
	return nil
}
