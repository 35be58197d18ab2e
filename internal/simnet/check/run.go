package check

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/flcrypto"
	"repro/internal/flo"
	"repro/internal/simnet"
	"repro/internal/statemachine"
	"repro/internal/types"
	"repro/internal/workload"
)

// RunOpts tune one scenario execution.
type RunOpts struct {
	// Logf, when set, receives progress and violation diagnostics.
	Logf func(format string, args ...any)
	// Inspect, when set, runs after the scenario converged and all standard
	// invariants passed — the hook ported tests use for extra assertions
	// (range-sync metrics, snapshot bases, ...). Its error fails the run.
	Inspect func(c *Cluster) error
}

// Cluster is the running (and, after Run returns, final) state of a
// scenario: the seeded network, the current node incarnations, and the
// invariant checker. Inspect hooks receive it.
type Cluster struct {
	Scenario Scenario
	Net      *simnet.SimNetwork
	Nodes    []*flo.Node
	Checker  *Checker
	KS       *flcrypto.KeySet

	// evidenceOracle arms the no-honest-equivocation invariant: every node
	// runs an evidence pool, and any verified equivocation proof naming a
	// node outside the scenario's Byzantine cast is a violation. Sound only
	// when no node can lose its proposal log — a stateless restart forfeits
	// the "honest nodes never equivocate" guarantee legitimately — so it is
	// armed for persisted scenarios and for schedules with no restarts.
	evidenceOracle bool

	// states holds each node's durable state backend for Stateful
	// scenarios (closed at stop boundaries and reopened — empty — on
	// restart, so recovered state can only come from the checkpoint
	// restore path, never from the backend file surviving by accident).
	states []*statemachine.Durable
	// stateSeq numbers the runner's client KV submissions.
	stateSeq uint64

	dirs []string
	logf func(format string, args ...any)
}

// stateClientID tags the runner's KV submissions; it only needs to be
// stable within a run so receipts can be matched out of delivered blocks.
const stateClientID = 0xC11E57A7E

// Run executes one scenario to its horizon and returns the first invariant
// violation (or schedule-execution failure) as an error; nil means every
// invariant held. The run is driven entirely by sc — same scenario, same
// fault schedule.
func Run(sc Scenario, opts RunOpts) error {
	sc.fill()
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	if byz := len(sc.Equivocators) + len(sc.Forgers); byz > sc.f() {
		return fmt.Errorf("invalid scenario: %d Byzantine nodes exceed f=%d", byz, sc.f())
	}

	restarts := false
	for _, e := range sc.Events {
		if e.Kind == EvRestart || e.Kind == EvRollingRestart {
			restarts = true
		}
	}
	c := &Cluster{
		Scenario:       sc,
		Net:            simnet.New(simnet.Config{N: sc.N, Seed: sc.Seed, Geo: sc.Geo}),
		Nodes:          make([]*flo.Node, sc.N),
		Checker:        NewChecker(sc.N, sc.byzantineCast()),
		KS:             flcrypto.MustGenerateKeySet(sc.N, flcrypto.Ed25519),
		evidenceOracle: sc.Persist || !restarts,
		logf:           logf,
	}
	defer c.Net.Close()
	if sc.Persist {
		c.dirs = make([]string, sc.N)
		for i := range c.dirs {
			dir, err := os.MkdirTemp("", "simnet-node")
			if err != nil {
				return fmt.Errorf("scenario setup: %w", err)
			}
			c.dirs[i] = dir
			defer os.RemoveAll(dir)
		}
	}
	if sc.Stateful {
		c.states = make([]*statemachine.Durable, sc.N)
		defer func() {
			for _, d := range c.states {
				if d != nil {
					d.Close()
				}
			}
		}()
	}
	for i := 0; i < sc.N; i++ {
		node, err := c.makeNode(i, false)
		if err != nil {
			return err
		}
		c.Nodes[i] = node
	}
	for _, node := range c.Nodes {
		node.Start()
	}
	defer func() {
		for _, node := range c.Nodes {
			if node != nil {
				node.Stop()
			}
		}
	}()

	// Phase 1 — warmup: a healthy cluster reaches the chaos start line.
	// Stateful scenarios also land a batch of client KV writes now, so the
	// checkpoints taken during chaos carry real state for restarts to
	// restore.
	if err := c.waitDefinite(sc.honest(), sc.Warmup, 60*time.Second, "warmup"); err != nil {
		return err
	}
	if sc.Stateful {
		if err := c.seedStateLoad(40); err != nil {
			return err
		}
	}

	// Phase 2 — chaos: play the seeded fault schedule.
	if err := c.executeSchedule(); err != nil {
		return err
	}

	// Phase 3 — heal everything and demand liveness: every honest node
	// reaches the frontier plus the horizon.
	c.Net.HealLinks()
	target := uint64(0)
	for _, i := range sc.honest() {
		for w := 0; w < sc.Workers; w++ {
			if d := c.Nodes[i].Worker(w).Chain().Definite(); d > target {
				target = d
			}
		}
	}
	target += sc.Horizon
	if err := c.waitDefinite(sc.honest(), target, sc.LivenessTimeout, "post-heal liveness"); err != nil {
		return err
	}

	// Phase 4 — final global checks: cross-node agreement over the full
	// retained definite prefixes, chain audits, and the per-step checker's
	// accumulated violations. Stateful scenarios first assert the read
	// path: a receipt-anchored Get answers with the committed value on
	// every node (violations land in the checker and surface below).
	if sc.Stateful {
		c.ackedChecks()
		if err := c.stateChecks(); err != nil {
			return err
		}
	}
	if err := c.finalChecks(); err != nil {
		return err
	}
	if opts.Inspect != nil {
		if err := opts.Inspect(c); err != nil {
			return fmt.Errorf("inspect: %w", err)
		}
	}
	return nil
}

// makeNode builds node i's (possibly restarted) incarnation. The checker is
// wired as the Deliver hook, so every merged delivery is validated at the
// step it happens.
func (c *Cluster) makeNode(i int, restart bool) (*flo.Node, error) {
	sc := c.Scenario
	cfg := flo.Config{
		Endpoint:     c.Net.Endpoint(flcrypto.NodeID(i)),
		Registry:     c.KS.Registry,
		Priv:         c.KS.Privs[i],
		Workers:      sc.Workers,
		BatchSize:    sc.BatchSize,
		Source:       workload.Saturating(flcrypto.NodeID(i), sc.TxSize),
		Equivocate:   sc.equivocator(i),
		CatchUpBatch: sc.CatchUpBatch,
		InitialTimer: 25 * time.Millisecond,
		ViewTimeout:  250 * time.Millisecond,
		Deliver:      func(w uint32, blk types.Block) { c.Checker.OnDeliver(i, w, blk) },
		OnSnapshotInstall: func(w uint32, base uint64) {
			c.logf("node %d worker %d installed a transferred snapshot at base %d", i, w, base)
			c.Checker.NoteSnapshotInstall(i, w, base)
		},
		SnapshotEvery:  sc.SnapshotEvery,
		SnapChunkBytes: sc.SnapChunkBytes,
		// A write parked by a nil round comes back within the run, and a
		// recovery that outlasts the lease re-proposes it: the repeat
		// inclusions the acked-write invariant has to tolerate.
		LeaseTimeout: time.Second,
	}
	if sc.forger(i) {
		// Every signature this node emits is corrupted in place: envelopes
		// decode fine at honest peers but fail verification there.
		cfg.Priv = corruptSigner{c.KS.Privs[i]}
	}
	if sc.Persist {
		cfg.DataDir = c.dirs[i]
	}
	if sc.Stateful {
		// Client pools instead of the saturating source (Submit and
		// Source are mutually exclusive), and a durable queryable
		// backend whose snapshot rides in the worker checkpoints. The
		// reopen truncates the backend file, so a restarted node's state
		// is whatever the checkpoint restore rebuilds — the path under
		// test.
		cfg.Source = nil
		if sc.MapState {
			// In-memory backend: a restart starts from a genuinely empty
			// map, so recovered state can only come from checkpoint restore
			// or snapshot transfer.
			cfg.State = statemachine.NewKV()
		} else {
			d, err := statemachine.OpenDurable(filepath.Join(c.dirs[i], "state"))
			if err != nil {
				return nil, fmt.Errorf("node %d state backend: %w", i, err)
			}
			c.states[i] = d
			cfg.State = d
		}
	}
	if c.evidenceOracle {
		cfg.EnableEvidence = true
	}
	if restart {
		cfg.Endpoint = c.Net.Reattach(flcrypto.NodeID(i))
	}
	node, err := flo.NewNode(cfg)
	if err != nil {
		return nil, fmt.Errorf("node %d: %w", i, err)
	}
	return node, nil
}

// corruptSigner implements a Scenario.Forgers node: signatures are produced
// honestly and then damaged in the scalar half, so they keep the right
// length and reach the verifier instead of failing a length check.
type corruptSigner struct {
	flcrypto.PrivateKey
}

func (s corruptSigner) Sign(msg []byte) (flcrypto.Signature, error) {
	sig, err := s.PrivateKey.Sign(msg)
	if err != nil || len(sig) == 0 {
		return sig, err
	}
	out := append(flcrypto.Signature(nil), sig...)
	out[len(out)/2+1] ^= 0x20
	return out, nil
}

// scheduledAction is one half of an event: its opening or its closing.
type scheduledAction struct {
	at   time.Duration
	ev   Event
	open bool
}

// expandEvents lowers the schedule to primitive actions: rolling restarts
// become staggered per-node restart windows, and every event contributes an
// open and a close action.
func expandEvents(sc Scenario) []scheduledAction {
	var actions []scheduledAction
	add := func(ev Event) {
		actions = append(actions, scheduledAction{at: ev.At, ev: ev, open: true})
		actions = append(actions, scheduledAction{at: ev.At + ev.Dur, ev: ev, open: false})
	}
	for _, ev := range sc.Events {
		if ev.Kind != EvRollingRestart {
			add(ev)
			continue
		}
		// Staggered full-cluster restart: node j goes down at At+j·stagger
		// for half the window, so downtimes overlap and the whole cluster
		// is briefly offline — the schedule shape of the proposer-amnesia
		// regression.
		stagger := ev.Dur / time.Duration(2*sc.N)
		for j := 0; j < sc.N; j++ {
			add(Event{
				Kind: EvRestart,
				At:   ev.At + time.Duration(j)*stagger,
				Dur:  ev.Dur / 2,
				Node: j,
			})
		}
	}
	sort.SliceStable(actions, func(i, j int) bool { return actions[i].at < actions[j].at })
	return actions
}

// executeSchedule plays the fault schedule in real time against the seeded
// network, enforcing durability at every restart boundary.
func (c *Cluster) executeSchedule() error {
	sc := c.Scenario
	actions := expandEvents(sc)
	preDef := make([]map[int]uint64, sc.N) // per stopped node: worker → definite tip
	var partTips map[int]uint64            // per node: summed tips at partition open
	lossyOpen := 0                         // overlapping EvLossy windows currently open
	start := time.Now()
	for _, a := range actions {
		if d := a.at - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		if sc.Stateful {
			c.chaosWrites()
		}
		ev := a.ev
		groups := func() [][]int {
			if ev.Kind == EvIsolate {
				return [][]int{{ev.Node}}
			}
			return [][]int{ev.Group}
		}
		switch ev.Kind {
		case EvPartition, EvIsolate:
			if a.open {
				c.logf("t=%s partition %v | rest", time.Since(start).Round(time.Millisecond), groups()[0])
				partTips = c.definiteTips()
				c.Net.Partition(groups()...)
			} else {
				c.logf("t=%s heal partition", time.Since(start).Round(time.Millisecond))
				c.checkNoQuorumStall(groups()[0], partTips)
				partTips = nil
				c.Net.Partition()
			}
		case EvLossy:
			// Lossy windows may overlap (the generator lays them out
			// independently of the structural clock): an opening installs
			// its parameters (latest wins), and faults only clear when the
			// last open window closes — closing one epoch must not
			// silently cancel another that the printed schedule claims is
			// still running.
			if a.open {
				lossyOpen++
				c.logf("t=%s lossy epoch drop=%.2f dup=%.2f jitter=%s",
					time.Since(start).Round(time.Millisecond), ev.Drop, ev.Dup, ev.Jitter)
				c.Net.SetLinkFaults(ev.Drop, ev.Dup, ev.Jitter)
			} else {
				lossyOpen--
				c.logf("t=%s end lossy epoch (%d still open)", time.Since(start).Round(time.Millisecond), lossyOpen)
				if lossyOpen == 0 {
					c.Net.SetLinkFaults(0, 0, 0)
				}
			}
		case EvRestart:
			if a.open {
				if c.Nodes[ev.Node] == nil {
					continue // already down (overlapping restart windows)
				}
				c.logf("t=%s stop node %d", time.Since(start).Round(time.Millisecond), ev.Node)
				c.Net.Crash(flcrypto.NodeID(ev.Node))
				c.Nodes[ev.Node].Stop()
				if sc.Persist {
					tips := make(map[int]uint64, sc.Workers)
					for w := 0; w < sc.Workers; w++ {
						tips[w] = c.Nodes[ev.Node].Worker(w).Chain().Definite()
					}
					preDef[ev.Node] = tips
				}
				if sc.Stateful && c.states[ev.Node] != nil {
					c.states[ev.Node].Close()
					c.states[ev.Node] = nil
				}
				c.Nodes[ev.Node] = nil
			} else {
				if c.Nodes[ev.Node] != nil {
					continue
				}
				c.logf("t=%s restart node %d", time.Since(start).Round(time.Millisecond), ev.Node)
				if err := c.restartNode(ev.Node, preDef[ev.Node]); err != nil {
					return err
				}
			}
		}
	}
	// Close any windows a malformed (e.g. hand-shrunk) schedule left open,
	// and bring every node back: phase 3 requires a fully healed cluster.
	for i := range c.Nodes {
		if c.Nodes[i] == nil {
			if err := c.restartNode(i, preDef[i]); err != nil {
				return err
			}
		}
	}
	return nil
}

// definiteTips snapshots every live honest node's definite rounds, summed
// across workers (the no-quorum stall check compares against it).
func (c *Cluster) definiteTips() map[int]uint64 {
	tips := make(map[int]uint64)
	for _, i := range c.Scenario.honest() {
		if c.Nodes[i] == nil {
			continue
		}
		var sum uint64
		for w := 0; w < c.Scenario.Workers; w++ {
			sum += c.Nodes[i].Worker(w).Chain().Definite()
		}
		tips[i] = sum
	}
	return tips
}

// checkNoQuorumStall enforces the safety half of the partition argument: a
// side with fewer than n−f nodes cannot assemble a definite quorum, so any
// node caught on such a side may only finalize the rounds already in flight
// when the partition landed — the pipeline is f+2 deep, so anything beyond
// (f+3 per worker) of extra progress means a quorum formed across a cut
// link. group is the partition's first side; the rest of the cluster is the
// other side.
func (c *Cluster) checkNoQuorumStall(group []int, openTips map[int]uint64) {
	if openTips == nil {
		return
	}
	sc := c.Scenario
	inGroup := make(map[int]bool, len(group))
	for _, n := range group {
		inGroup[n] = true
	}
	sideSize := [2]int{len(group), sc.N - len(group)}
	quorum := sc.N - sc.f()
	slack := uint64(sc.Workers) * uint64(sc.f()+3)
	for _, i := range sc.honest() {
		side := 1
		if inGroup[i] {
			side = 0
		}
		if sideSize[side] >= quorum {
			continue // this side may legitimately keep finalizing
		}
		if c.Nodes[i] == nil {
			continue // stopped (and possibly restarted) mid-window; skip
		}
		before, ok := openTips[i]
		if !ok {
			continue
		}
		var now uint64
		for w := 0; w < sc.Workers; w++ {
			now += c.Nodes[i].Worker(w).Chain().Definite()
		}
		if now > before+slack {
			c.Checker.Violate(
				"no-quorum progress violation: node %d finalized %d rounds inside a %d-node partition side (quorum is %d)",
				i, now-before, sideSize[side], quorum)
		}
	}
}

// restartNode boots a fresh incarnation of node i on a reattached endpoint
// and asserts the durability invariant: with persistence, the replayed chain
// must re-expose the pre-stop definite prefix byte-for-byte (hashes checked
// against the cluster-wide oracle), at most one in-flight round short.
func (c *Cluster) restartNode(i int, preStop map[int]uint64) error {
	c.Net.Heal(flcrypto.NodeID(i))
	c.Checker.ResetNode(i)
	node, err := c.makeNode(i, true)
	if err != nil {
		return fmt.Errorf("restart: %w", err)
	}
	if c.Scenario.Persist && preStop != nil && !c.Scenario.byzantine(i) {
		for w := 0; w < c.Scenario.Workers; w++ {
			chain := node.Worker(w).Chain()
			replayed := chain.Definite()
			if want := preStop[w]; replayed+1 < want {
				c.Checker.Violate(
					"durability violation at node %d worker %d: definite tip %d before stop, only %d replayed",
					i, w, want, replayed)
			}
			for r := chain.Base() + 1; r <= replayed; r++ {
				hdr, ok := chain.HeaderAt(r)
				if !ok {
					c.Checker.Violate("durability violation at node %d worker %d: replayed round %d unreadable", i, w, r)
					continue
				}
				got := hdr.Hash()
				if want, ok := c.Checker.HashAt(uint32(w), r); ok && got != want {
					c.Checker.Violate(
						"durability violation at node %d worker %d round %d: replayed %x, cluster delivered %x",
						i, w, r, got[:8], want[:8])
				}
			}
		}
	}
	c.Nodes[i] = node
	node.Start()
	return nil
}

// waitDefinite blocks until every listed node's every worker reaches
// `rounds` definite rounds, or fails with a per-node tip report — the
// liveness oracle.
func (c *Cluster) waitDefinite(who []int, rounds uint64, timeout time.Duration, phase string) error {
	deadline := time.Now().Add(timeout)
	for {
		done := true
		for _, i := range who {
			if c.Nodes[i] == nil {
				done = false
				break
			}
			for w := 0; w < c.Scenario.Workers; w++ {
				if c.Nodes[i].Worker(w).Chain().Definite() < rounds {
					done = false
					break
				}
			}
			if !done {
				break
			}
		}
		if done {
			return nil
		}
		if time.Now().After(deadline) {
			// No excusals: a node stranded below every peer's retained
			// history is exactly what the snapshot-transfer path exists to
			// rescue (core/snapsync.go), so lagging behind the target is a
			// liveness violation no matter how the node got there. The report
			// includes each laggard's transfer counters and every peer's
			// retained base to make a failed rescue diagnosable.
			var tips []string
			for _, i := range who {
				if c.Nodes[i] == nil {
					tips = append(tips, fmt.Sprintf("node %d: down", i))
					continue
				}
				for w := 0; w < c.Scenario.Workers; w++ {
					inst := c.Nodes[i].Worker(w)
					if inst.Chain().Definite() >= rounds {
						continue
					}
					m := inst.Metrics()
					var bases []string
					for _, j := range c.Scenario.honest() {
						if j != i && c.Nodes[j] != nil {
							bases = append(bases, fmt.Sprintf("%d:base=%d", j, c.Nodes[j].Worker(w).Chain().Base()))
						}
					}
					tips = append(tips, fmt.Sprintf("node %d/w%d: definite=%d tip=%d rangeReqs=%d rangeBlocks=%d recoveries=%d resyncs=%d nilRounds=%d snapInstalls=%d snapResumes=%d snapRejects=%d peers(%s) %s",
						i, w, inst.Chain().Definite(), inst.Chain().Tip(),
						m.CatchUpRangeReqs.Load(), m.CatchUpRangeBlocks.Load(), m.Recoveries.Load(),
						m.TentativeResyncs.Load(), m.NilRounds.Load(),
						m.SnapInstalls.Load(), m.SnapResumes.Load(), m.SnapChunkRejects.Load(),
						strings.Join(bases, " "), inst.DebugString()))
				}
			}
			return fmt.Errorf("liveness violation (%s): definite target %d not reached within %s; tips: %s",
				phase, rounds, timeout, tips)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// stateKey / stateValue name the runner's i-th seeded KV write.
func stateKey(i int) string   { return fmt.Sprintf("sim/%06d", i) }
func stateValue(i int) []byte { return []byte(fmt.Sprintf("v%06d", i)) }

// nextKV mints the runner's next client write.
func (c *Cluster) nextKV(key string, value []byte) types.Transaction {
	c.stateSeq++
	return types.Transaction{Client: stateClientID, Seq: c.stateSeq, Payload: statemachine.EncodeSet(key, value)}
}

// submitAcked hands tx to node via's client pool and, once the node has
// accepted it, puts it under the acked-write invariant (Checker.NoteAck).
func (c *Cluster) submitAcked(via int, tx types.Transaction) error {
	if err := c.Nodes[via].Submit(tx); err != nil {
		return fmt.Errorf("state submit via node %d: %w", via, err)
	}
	c.Checker.NoteAck(via, tx)
	return nil
}

// chaosWrites submits one client write through every honest node that is up,
// at each step of the fault schedule: writes acked into partitions, ahead of
// crashes of other nodes, under loss and next to Byzantine proposers are
// what the acked-write invariant is about.
func (c *Cluster) chaosWrites() {
	for _, i := range c.Scenario.honest() {
		if c.Nodes[i] == nil {
			continue
		}
		key := fmt.Sprintf("sim/chaos/%06d", c.stateSeq)
		if err := c.submitAcked(i, c.nextKV(key, []byte(key))); err != nil {
			c.Checker.Violate("chaos write: %v", err)
		}
	}
}

// ackedChecks closes the acked-write invariant once the schedule has healed:
// every write an honest node accepted (and did not take to its grave in a
// crash) is in the definite log at least once and was delivered at the node
// that accepted it — at-least-once inclusion, one receipt — and no pool
// still holds a write that committed.
func (c *Cluster) ackedChecks() {
	var owed []string
	var repeats int
	deadline := time.Now().Add(30 * time.Second)
	for {
		if owed, repeats = c.Checker.OwedWrites(); len(owed) == 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if len(owed) > 0 {
		for _, w := range owed {
			c.Checker.Violate("acked-write violation: %s", w)
		}
		return
	}
	c.logf("acked writes all included and delivered; %d repeat inclusions", repeats)
	for _, i := range c.Scenario.honest() {
		for c.Nodes[i].PoolPending() > 0 {
			if time.Now().After(deadline) {
				c.Checker.Violate("acked-write violation: node %d's pools still hold %d writes after every acked write committed",
					i, c.Nodes[i].PoolPending())
				break
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
}

// submitKV submits one Set command through node via's client pool and waits
// for it to land in a definite block of the merged stream, returning the
// commit-receipt coordinates (worker, round) — exactly what a Session's
// Receipt.Token() anchors reads to.
func (c *Cluster) submitKV(via int, key string, value []byte, timeout time.Duration) (uint32, uint64, error) {
	tx := c.nextKV(key, value)
	id := tx.ID()
	type receipt struct {
		w uint32
		r uint64
	}
	got := make(chan receipt, 1)
	cancel := c.Nodes[via].SubscribeDeliver(func(w uint32, blk types.Block) {
		for i := range blk.Body.Txs {
			if blk.Body.Txs[i].ID() == id {
				select {
				case got <- receipt{w, blk.Signed.Header.Round}:
				default:
				}
				return
			}
		}
	})
	defer cancel()
	if err := c.submitAcked(via, tx); err != nil {
		return 0, 0, err
	}
	select {
	case rc := <-got:
		return rc.w, rc.r, nil
	case <-time.After(timeout):
		return 0, 0, fmt.Errorf("state submit via node %d: %q not definite within %s", via, key, timeout)
	}
}

// seedStateLoad lands count client KV writes through node 0 and waits for
// the last one to finalize, so checkpoints taken during the fault schedule
// carry real application state.
func (c *Cluster) seedStateLoad(count int) error {
	for i := 0; i < count-1; i++ {
		if err := c.submitAcked(0, c.nextKV(stateKey(i), stateValue(i))); err != nil {
			return fmt.Errorf("state load: %w", err)
		}
	}
	w, r, err := c.submitKV(0, stateKey(count-1), stateValue(count-1), 30*time.Second)
	if err != nil {
		return fmt.Errorf("state load: %w", err)
	}
	c.logf("state load seeded: %d keys, last definite at (w%d, r%d)", count, w, r)
	return nil
}

// stateChecks asserts the queryable-state guarantees once the schedule has
// healed: a fresh client write's receipt anchors a Get on every honest node
// — including nodes restarted from a durable-backend checkpoint — answering
// with the committed value, the pre-chaos keys are still readable at that
// receipt, and, after stopping the cluster, nodes at equal applied position
// vectors hold byte-identical state snapshots. Violations land in the
// checker (surfaced by finalChecks); the error return is reserved for
// mechanical failures of the probe itself.
func (c *Cluster) stateChecks() error {
	sc := c.Scenario
	via := sc.honest()[0]
	probeVal := []byte("committed")
	w, r, err := c.submitKV(via, "sim/probe", probeVal, 30*time.Second)
	if err != nil {
		return err
	}
	c.logf("receipt probe definite at (w%d, r%d)", w, r)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, i := range sc.honest() {
		if v, ok, err := c.Nodes[i].StateGet(ctx, "sim/probe", w, r); err != nil || !ok || !bytes.Equal(v, probeVal) {
			c.Checker.Violate(
				"state read violation: node %d receipt-anchored Get(sim/probe @ w%d r%d) = %q/%v/%v, want %q",
				i, w, r, v, ok, err, probeVal)
		}
		if v, ok, err := c.Nodes[i].StateGet(ctx, stateKey(0), w, r); err != nil || !ok || !bytes.Equal(v, stateValue(0)) {
			c.Checker.Violate(
				"state read violation: node %d pre-chaos key %s = %q/%v/%v at the probe receipt, want %q",
				i, stateKey(0), v, ok, err, stateValue(0))
		}
	}
	// Snapshot agreement needs quiescent replicas: stop the cluster (Stop
	// is idempotent, so the deferred stop becomes a no-op) and compare full
	// state snapshots across nodes whose applied position vectors match —
	// anything but byte-identical bytes means the appliers diverged.
	for _, n := range c.Nodes {
		if n != nil {
			n.Stop()
		}
	}
	type stateAt struct {
		node int
		snap []byte
	}
	byPos := make(map[string]stateAt)
	for _, i := range sc.honest() {
		rep := c.Nodes[i].State()
		if rep == nil {
			c.Checker.Violate("state violation: node %d lost its ledger replica", i)
			continue
		}
		pos := make([]uint64, sc.Workers)
		for w := 0; w < sc.Workers; w++ {
			pos[w] = rep.Position(uint32(w))
		}
		key := fmt.Sprintf("%v", pos)
		snap := rep.Snapshot()
		if prev, ok := byPos[key]; ok {
			if !bytes.Equal(prev.snap, snap) {
				c.Checker.Violate(
					"state agreement violation: nodes %d and %d applied the same positions %s but hold different snapshots",
					prev.node, i, key)
			}
		} else {
			byPos[key] = stateAt{node: i, snap: snap}
		}
	}
	c.logf("state snapshots compared: %d honest nodes, %d distinct position vectors", len(sc.honest()), len(byPos))
	return nil
}

// finalChecks asserts end-state agreement: for every worker, all honest
// nodes' retained definite prefixes are identical and every chain passes the
// signed-header audit; then the per-step checker's flight recorder must be
// empty.
func (c *Cluster) finalChecks() error {
	sc := c.Scenario
	honest := sc.honest()
	for w := 0; w < sc.Workers; w++ {
		minDef := ^uint64(0)
		for _, i := range honest {
			if d := c.Nodes[i].Worker(w).Chain().Definite(); d < minDef {
				minDef = d
			}
		}
		for r := uint64(1); r <= minDef; r++ {
			var ref flcrypto.Hash
			refNode := -1
			for _, i := range honest {
				hdr, ok := c.Nodes[i].Worker(w).Chain().HeaderAt(r)
				if !ok {
					continue // compacted below this node's base
				}
				got := hdr.Hash()
				if refNode == -1 {
					ref, refNode = got, i
					continue
				}
				if got != ref {
					c.Checker.Violate(
						"agreement violation (final) at worker %d round %d: node %d has %x, node %d has %x",
						w, r, i, got[:8], refNode, ref[:8])
				}
			}
		}
		for _, i := range honest {
			if err := c.Nodes[i].Worker(w).Chain().Audit(c.KS.Registry); err != nil {
				c.Checker.Violate("audit failure at node %d worker %d: %v", i, w, err)
			}
		}
		if c.evidenceOracle {
			// No honest equivocation: a verified proof naming a node outside
			// the Byzantine cast means a correct node signed two different
			// blocks for one slot — the proposer-amnesia class of bug
			// (store.ProposalLog exists to prevent it across restarts).
			for _, i := range honest {
				pool := c.Nodes[i].EvidencePool(w)
				if pool == nil {
					continue
				}
				for _, rec := range pool.Records() {
					if !sc.byzantine(int(rec.Culprit)) {
						c.Checker.Violate(
							"honest-equivocation violation: node %d holds a verified proof that honest node %d signed conflicting blocks (worker %d, round %d)",
							i, rec.Culprit, w, rec.Proof.A.Header.Round)
					}
				}
			}
		}
	}
	if v := c.Checker.Violations(); len(v) > 0 {
		for _, msg := range v {
			c.logf("VIOLATION: %s", msg)
		}
		return fmt.Errorf("%d invariant violation(s), first: %s", len(v), v[0])
	}
	return nil
}
