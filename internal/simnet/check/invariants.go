package check

import (
	"bytes"
	"fmt"
	"sort"
	"sync"

	"repro/internal/flcrypto"
	"repro/internal/types"
)

// slot identifies one definite position in the two-dimensional log.
type slot struct {
	w uint32
	r uint64
}

// firstWrite remembers which node first delivered a hash at a slot, for
// conflict reports.
type firstWrite struct {
	hash flcrypto.Hash
	node int
}

// Checker is the always-on invariant oracle: every node's Deliver hook feeds
// it, and it validates each delivery the moment it happens — agreement
// against every block any honest node has ever delivered at that slot, and
// per-node prefix consistency of the merged order (per-worker rounds must
// advance contiguously within a node incarnation, so a duplicate, a skipped
// round, or an out-of-order emission is flagged at the step it occurs, not
// at the end of the run). Violations accumulate; the runner turns them into
// a failed scenario.
type Checker struct {
	mu sync.Mutex
	// byz marks nodes whose deliveries are recorded but not asserted on
	// (the paper promises nothing about Byzantine nodes' local state).
	byz map[int]bool
	// global is the cluster-wide slot → first delivered hash map; agreement
	// means no honest node ever contradicts it. It survives restarts — a
	// definite block is forever.
	global map[slot]firstWrite
	// cursor tracks each live node incarnation's last delivered round per
	// worker; fresh incarnations (restarts) may re-deliver or resume, but
	// must advance contiguously from wherever they start.
	cursor map[int]map[uint32]uint64
	// installs counts snapshot-transfer installs per node across all of its
	// incarnations (per-instance metrics die with a restart; this survives,
	// so crash-mid-transfer scenarios can assert a rescue happened at all).
	installs map[int]uint64
	// acked tracks the client writes honest nodes accepted (NoteAck): the
	// at-least-once-inclusion, exactly-once-receipt contract is asserted on
	// them as blocks are delivered and once more at the end of the run.
	acked map[writeID]*ackedWrite
	// violations is the flight recorder the runner drains.
	violations []string
}

// writeID is a client write's identity: what a commit receipt resolves.
type writeID struct{ client, seq uint64 }

// ackedWrite is one write an honest node accepted into its pool.
type ackedWrite struct {
	node    int
	payload []byte
	// slots are the definite positions that carry the write. The first one a
	// node delivers resolves the receipt; any more are the repeats that
	// at-least-once inclusion allows (a lease that expired while its block
	// was still deciding).
	slots map[slot]bool
	// delivered: the node that acked the write has delivered it, which
	// resolves the client's receipt.
	delivered bool
	// installed: the acking node adopted a transferred snapshot before it
	// delivered the write, so the block may lie below the installed base,
	// where nothing is delivered; only inclusion is owed then.
	installed bool
}

// NewChecker builds a checker for an n-node cluster with the given
// Byzantine cast.
func NewChecker(n int, byzantine []int) *Checker {
	c := &Checker{
		byz:      make(map[int]bool, len(byzantine)),
		global:   make(map[slot]firstWrite),
		cursor:   make(map[int]map[uint32]uint64, n),
		installs: make(map[int]uint64, n),
		acked:    make(map[writeID]*ackedWrite),
	}
	for _, b := range byzantine {
		c.byz[b] = true
	}
	return c
}

// OnDeliver validates one merged-stream delivery at node `node`. It is the
// per-step invariant probe: installed as every node's flo Deliver hook, it
// runs synchronously on the delivery path.
func (c *Checker) OnDeliver(node int, w uint32, blk types.Block) {
	round := blk.Signed.Header.Round
	hash := blk.Hash()
	c.mu.Lock()
	defer c.mu.Unlock()

	// Agreement: one hash per (worker, round), forever, across all honest
	// nodes and all of their incarnations.
	s := slot{w: w, r: round}
	if prev, ok := c.global[s]; ok {
		if prev.hash != hash && !c.byz[node] {
			c.violations = append(c.violations, fmt.Sprintf(
				"agreement violation at (worker %d, round %d): node %d delivered %x, node %d first delivered %x",
				w, round, node, hash[:8], prev.node, prev.hash[:8]))
		}
	} else if !c.byz[node] {
		c.global[s] = firstWrite{hash: hash, node: node}
	}

	if c.byz[node] {
		return
	}

	// Prefix consistency: within an incarnation, a worker's rounds advance
	// by exactly one — no duplicates, no gaps, no reordering.
	rounds := c.cursor[node]
	if rounds == nil {
		rounds = make(map[uint32]uint64)
		c.cursor[node] = rounds
	}
	if last, started := rounds[w]; started && round != last+1 {
		c.violations = append(c.violations, fmt.Sprintf(
			"delivery order violation at node %d: worker %d delivered round %d after round %d",
			node, w, round, last))
	}
	rounds[w] = round

	// Acked writes: an inclusion carries the write that was acked, not
	// another payload under its identity; the acking node's first delivery
	// of it is its receipt.
	if len(c.acked) == 0 {
		return
	}
	for i := range blk.Body.Txs {
		tx := &blk.Body.Txs[i]
		a := c.acked[writeID{tx.Client, tx.Seq}]
		if a == nil {
			continue
		}
		if !bytes.Equal(a.payload, tx.Payload) {
			c.violations = append(c.violations, fmt.Sprintf(
				"receipt violation: (client %#x, seq %d), acked by node %d, is included at (worker %d, round %d) with a different payload",
				tx.Client, tx.Seq, a.node, w, round))
			continue
		}
		a.slots[s] = true
		if node == a.node {
			a.delivered = true
		}
	}
}

// NoteAck records that honest node `node` accepted tx into its pool. From
// here on the contract binds: while that node stays up, tx is included in the
// definite log at least once, under its own payload, and the node delivers
// it — which resolves the one receipt its client gets.
func (c *Checker) NoteAck(node int, tx types.Transaction) {
	c.mu.Lock()
	c.acked[writeID{tx.Client, tx.Seq}] = &ackedWrite{node: node, payload: tx.Payload, slots: make(map[slot]bool)}
	c.mu.Unlock()
}

// OwedWrites lists the acked writes that are not yet both in the definite
// log and delivered at the node that acked them, and counts the repeat
// inclusions seen so far (allowed; reported).
func (c *Checker) OwedWrites() (owed []string, repeats int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for id, a := range c.acked {
		if len(a.slots) == 0 || !a.delivered && !a.installed {
			owed = append(owed, fmt.Sprintf("(client %#x, seq %d) acked by node %d: %d inclusions, delivered there: %v",
				id.client, id.seq, a.node, len(a.slots), a.delivered))
		}
		if len(a.slots) > 1 {
			repeats += len(a.slots) - 1
		}
	}
	sort.Strings(owed)
	return owed, repeats
}

// NoteSnapshotInstall records that node's worker w adopted a transferred
// checkpoint anchored at base: within the same incarnation the merged stream
// legitimately resumes at base+1 — rounds at or below base are covered by
// the installed state and never delivered as blocks on that node. Agreement
// stays binding: everything the node delivers above base is still checked
// against the cluster-wide slot hashes.
func (c *Checker) NoteSnapshotInstall(node int, w uint32, base uint64) {
	c.mu.Lock()
	rounds := c.cursor[node]
	if rounds == nil {
		rounds = make(map[uint32]uint64)
		c.cursor[node] = rounds
	}
	rounds[w] = base
	c.installs[node]++
	for _, a := range c.acked {
		if a.node == node && !a.delivered {
			a.installed = true
		}
	}
	c.mu.Unlock()
}

// SnapshotInstalls reports how many snapshot-transfer installs node has
// performed across all incarnations of this run.
func (c *Checker) SnapshotInstalls(node int) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.installs[node]
}

// ResetNode opens a new incarnation for node: the per-worker cursors reset
// (a restarted node resumes above its replayed prefix, or re-delivers from
// round 1 when it restarts stateless), while its slot hashes stay binding.
// The writes the old incarnation acked and had not delivered are excused: its
// pool died with it, as a client that lost its session to the crash knows.
func (c *Checker) ResetNode(node int) {
	c.mu.Lock()
	delete(c.cursor, node)
	for id, a := range c.acked {
		if a.node == node && !a.delivered {
			delete(c.acked, id)
		}
	}
	c.mu.Unlock()
}

// HashAt exposes the cluster-wide first-delivered hash for a slot (the
// durability oracle restarts are checked against).
func (c *Checker) HashAt(w uint32, r uint64) (flcrypto.Hash, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	fw, ok := c.global[slot{w: w, r: r}]
	return fw.hash, ok
}

// Violate records an externally-detected invariant violation (the runner
// uses it for durability breaks observed at restart time).
func (c *Checker) Violate(format string, args ...any) {
	c.mu.Lock()
	c.violations = append(c.violations, fmt.Sprintf(format, args...))
	c.mu.Unlock()
}

// Violations snapshots the recorded invariant breaks.
func (c *Checker) Violations() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, len(c.violations))
	copy(out, c.violations)
	return out
}
