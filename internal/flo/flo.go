// Package flo implements the FireLedger Orchestrator of paper §6.2: each
// node runs ω FireLedger worker instances as a blockchain-based ordering
// service, a client manager that routes each write to a worker pool by
// hash affinity on the client id (with a guarded least-loaded fallback),
// and a round-robin merger that delivers the workers' definite blocks in
// one global order. All workers share a single transport endpoint and a
// single PBFT replica (the paper likewise shares one BFT-SMaRt instance
// across workers, Fig 3).
//
// A block crosses three stages, each on its own goroutine, joined by
// bounded queues:
//
//  1. the worker's round loop (core.Instance) proposes, verifies, decides,
//     and on a definite decision does protocol bookkeeping only;
//  2. the worker's commit stage persists the block (its own BlockLog and
//     group-commit committer), retires its transactions from the client
//     pool, and queues it at the merger;
//  3. the node's one delivery goroutine (merger.run) takes the workers'
//     blocks in the global order and applies them to the state replica,
//     hands them to Config.Deliver and the subscribers, and cuts the
//     checkpoints.
//
// A data dir holds, per worker i: the block log's segments (w<i>.log, then
// w<i>.log.<first round> for each segment a checkpoint started; see
// internal/store), the newest checkpoint w<i>.snap, and the proposal memo
// w<i>.props.
package flo

import (
	"context"
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/evidence"
	"repro/internal/flcrypto"
	"repro/internal/obbc"
	"repro/internal/pbft"
	"repro/internal/rbroadcast"
	"repro/internal/statemachine"
	"repro/internal/store"
	"repro/internal/transport"
	"repro/internal/types"
	"repro/internal/workload"
	"repro/internal/wrb"
)

// Protocol-ID layout on the shared mux: PBFT gets a fixed tag, and each
// worker w claims a contiguous block of five tags.
const (
	protoPBFT transport.ProtoID = 1
	// protoWorkerBase + 5*w + {0,1,2,3,4} = WRB, OBBC, RB, data, gossip of
	// worker w.
	protoWorkerBase transport.ProtoID = 8
	protosPerWorker                   = 5
)

// MaxWorkers bounds ω by the 8-bit protocol-ID space.
const MaxWorkers = 48

// Config assembles one FLO node.
type Config struct {
	// Endpoint is the node's transport attachment (chan or TCP).
	Endpoint transport.Endpoint
	// Registry and Priv identify the node.
	Registry *flcrypto.Registry
	Priv     flcrypto.PrivateKey
	// VerifyPool is the node's shared signature-verification pool (parallel
	// workers plus a dedup cache; see flcrypto.VerifyPool), threaded down to
	// every protocol service. Nil creates a GOMAXPROCS-sized pool with the
	// default cache, owned (and closed) by the node — set SyncVerify to opt
	// out entirely. A supplied pool is shared, not owned: its creator closes
	// it after Stop.
	VerifyPool *flcrypto.VerifyPool
	// SyncVerify disables the asynchronous verification pipeline: every
	// signature is checked inline and uncached where it arrives. The
	// deterministic escape hatch for tests and debugging.
	SyncVerify bool
	// Workers is the paper's ω (default 1).
	Workers int
	// BatchSize is the paper's β (default 100).
	BatchSize int
	// Source, when set, supplies each worker's transactions in place of the
	// client pools Submit feeds — workload.Saturating is the §7.2 load model
	// (every proposal a full block of fresh σ-byte transactions). It is
	// called once per worker during NewNode.
	Source func(worker uint32) core.TxSource
	// Deliver receives the merged, definite, globally-ordered blocks
	// (event E of Fig 9). May be nil.
	Deliver func(worker uint32, blk types.Block)
	// OnSnapshotInstall fires after worker w adopts a transferred
	// checkpoint anchored at base (snapshot transfer — the rescue path for
	// nodes stranded below every peer's retained history; see
	// core/snapsync.go). The worker's merged delivery stream resumes at
	// base+1: rounds at or below base are covered by the installed state
	// and are never delivered as blocks on this node. May be nil.
	OnSnapshotInstall func(worker uint32, base uint64)
	// OnEvent receives per-worker lifecycle events (Fig 9). May be nil.
	OnEvent func(worker uint32, round uint64, ev core.Event)
	// Equivocate makes every worker a §7.4.2 Byzantine split-proposer.
	Equivocate bool
	// DisablePiggyback ablates the §5.1 next-block piggyback (see
	// core.Config.DisablePiggyback).
	DisablePiggyback bool
	// EpochLen, FDThreshold, MaxPending pass through to core.Config.
	EpochLen    uint64
	FDThreshold int
	MaxPending  int
	// InitialTimer seeds the WRB adaptive timer (default 50ms).
	InitialTimer time.Duration
	// ViewTimeout is the PBFT leader-failure timeout (default 400ms).
	ViewTimeout time.Duration
	// LeaseTimeout for client pools (default 5s).
	LeaseTimeout time.Duration
	// DataDir, when set, persists each worker's definite chain to the log
	// segments DataDir/w<N>.log[.<first round>] and resumes from them on
	// restart (internal/store).
	DataDir string
	// SyncWrites makes persisted blocks durable by group commit
	// (store.Options.GroupCommit): the commit stage enqueues each definite
	// block without blocking on its fsync, and blocks finalized while a sync
	// is in flight share the next one. An I/O failure is sticky: it surfaces
	// on the next append, and Checkpoint and Close drain the queue first.
	// Without it the OS page cache owns durability.
	SyncWrites bool
	// CatchUpBatch is the block count per streaming catch-up batch and the
	// lag threshold that switches a node from per-round pulls to range
	// sync (default 64). A node R rounds behind rejoins with ~R/CatchUpBatch
	// catch-up requests instead of one broadcast per round.
	CatchUpBatch int
	// SnapChunkBytes caps each snapshot-transfer chunk (default 256 KiB).
	// When a node falls below every peer's retained history — range sync
	// cannot serve rounds the cluster compacted away — it downloads a peer's
	// freshest checkpoint in hash-chained chunks of this size and installs
	// it (see core/snapsync.go); smaller chunks mean finer-grained resume
	// after a donor failure at the cost of more round trips.
	SnapChunkBytes int
	// SnapshotEvery, with DataDir, checkpoints each worker every
	// SnapshotEvery definite rounds: a snapshot (chain anchor + optional
	// application state) is written next to the log and the log segments
	// below the anchor are unlinked, so restart replay reads only the
	// post-snapshot suffix — O(delta), not O(history). 0 disables compaction.
	SnapshotEvery uint64
	// State, when set, makes the node maintain a queryable ledger replica:
	// the merged definite stream is applied to this backend (before Deliver
	// and subscribers see each block), and the node serves point gets,
	// ordered range scans, and key watches from it — anchored to commit
	// receipts via StateGet/StateScan/StateWatch. With DataDir and
	// SnapshotEvery the replica's snapshot rides in the worker checkpoints:
	// it is captured at the merge point — on the delivery goroutine, right
	// after the block completing a checkpoint cycle was delivered, so it
	// reflects exactly the merged prefix delivered so far, at any ω — and
	// each worker's snapshot records that worker's last delivered round as
	// its StateRound. On restart NewNode loads the freshest checkpoint found
	// across workers and re-delivers the replayed post-snapshot rounds in
	// merged (round, worker) order; the replica's positions skip what the
	// checkpoint already covers. The node does not close the backend; its
	// owner does, after Stop.
	State statemachine.StateBackend
	// EnableEvidence activates the accountability path: each worker keeps
	// an evidence pool, records equivocation proofs it observes, and embeds
	// pending convictions in its block proposals (see internal/evidence).
	EnableEvidence bool
	// ExcludeConvicted additionally removes convicted nodes from the
	// proposer rotation once their conviction is on-chain (implies
	// EnableEvidence-style scanning of definite blocks). All nodes of a
	// deployment must agree on this setting.
	ExcludeConvicted bool
	// OnConviction, when set (requires EnableEvidence), fires when worker
	// w's pool sees a conviction reach a definite block.
	OnConviction func(w uint32, rec evidence.Record)
	// GossipBodies disseminates block bodies by push-gossip instead of the
	// clique overlay (§7.2.2); GossipFanout tunes the branching (default 3).
	GossipBodies bool
	GossipFanout int
	// CompressBodies DEFLATE-frames body payloads on the data path — the
	// paper's recommendation for large transactions (Conclusions, §7.6).
	CompressBodies bool
}

// Node is one FLO participant.
type Node struct {
	cfg Config
	id  flcrypto.NodeID
	mux *transport.Mux

	replica  *pbft.Replica
	workers  []*core.Instance
	obbcs    []*obbc.Service
	rbs      []*rbroadcast.Service
	pools    []*workload.Pool
	logs     []*store.BlockLog
	propLogs []*store.ProposalLog
	evpools  []*evidence.Pool

	verify    *flcrypto.VerifyPool
	ownVerify bool // the node created verify and must close it

	merger *merger

	// Merge-point checkpointing (DataDir + SnapshotEvery): one capture
	// covers all workers, written as ω per-worker snapshots.
	snapPaths []string
	retain    uint64
	ckptErr   atomic.Value // error: first failed checkpoint, sticky

	// Snapshot transfer (DataDir): snapLive[w] is worker w's freshest
	// on-disk checkpoint, cached in memory so the node can donate it to
	// stranded peers without a disk read per chunk request. Seeded from the
	// boot snapshot, refreshed after every merge-point checkpoint and every
	// local install. installMu serializes installs across workers — the ω
	// transfers share one replica, and concurrent state resets must not
	// interleave.
	snapMu    sync.Mutex
	snapLive  []*store.Snapshot
	installMu sync.Mutex

	// overload is the pool backlog above which Submit consults its
	// second hashed choice (power of two choices).
	overload int

	// Restore accumulation during NewNode (cleared once restored).
	restoreBest   *store.Snapshot
	restoreBlocks []types.Block

	// Managed ledger state (Config.State): the replica the merged stream is
	// applied to and reads are served from. Assigned during NewNode (and
	// replaced at most once by the restore path, before Start), read-only
	// afterwards.
	stateRep *statemachine.Replica

	subMu     sync.RWMutex
	subs      []deliverSub
	nextSubID uint64

	clientMu sync.Mutex
	clients  map[uint64]bool

	stopOnce sync.Once
}

// deliverSub is one SubscribeDeliver registration; the id makes it
// individually cancelable.
type deliverSub struct {
	id uint64
	fn func(uint32, types.Block)
}

// SubscribeDeliver registers an additional consumer of the merged definite
// block stream (alongside Config.Deliver) and returns a cancel function that
// detaches it. Subscribers run synchronously in delivery order and must not
// block. The client API registers O(1) taps per node, not per connection:
// its fan-out hub takes a single tap and shares each delivery across every
// remote subscriber (replay cohorts cover historical cursors from the log).
// Subscribers registered after Start observe only deliveries from
// registration onward; a delivery already in flight when cancel returns may
// still invoke the callback once.
func (n *Node) SubscribeDeliver(fn func(worker uint32, blk types.Block)) (cancel func()) {
	n.subMu.Lock()
	id := n.nextSubID
	n.nextSubID++
	n.subs = append(n.subs, deliverSub{id: id, fn: fn})
	n.subMu.Unlock()
	return func() {
		n.subMu.Lock()
		for i := range n.subs {
			if n.subs[i].id == id {
				// Rebuild rather than splice in place: a delivery running
				// concurrently iterates the old backing array.
				n.subs = append(n.subs[:i:i], n.subs[i+1:]...)
				break
			}
		}
		n.subMu.Unlock()
	}
}

// SystemClientID is the reserved client identity of on-chain conviction
// transactions (see internal/evidence); RegisterClient refuses it.
const SystemClientID = evidence.SystemClient

// RegisterClient claims a client identity on this node. Claims are exclusive
// — a second registration of a live id fails — so two sessions can never
// resolve each other's sequence numbers; the reserved conviction identity is
// rejected outright. UnregisterClient releases the claim (sessions do this
// on Close, so a reconnecting client can re-register).
func (n *Node) RegisterClient(id uint64) error {
	if id == evidence.SystemClient {
		return fmt.Errorf("flo: client id %#x is reserved for conviction transactions", id)
	}
	n.clientMu.Lock()
	defer n.clientMu.Unlock()
	if n.clients == nil {
		n.clients = make(map[uint64]bool)
	}
	if n.clients[id] {
		return fmt.Errorf("flo: client id %d is already registered on this node", id)
	}
	n.clients[id] = true
	return nil
}

// UnregisterClient releases a RegisterClient claim.
func (n *Node) UnregisterClient(id uint64) {
	n.clientMu.Lock()
	delete(n.clients, id)
	n.clientMu.Unlock()
}

// NewNode wires a node; call Start to run it.
func NewNode(cfg Config) (*Node, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.Workers > MaxWorkers {
		return nil, fmt.Errorf("flo: %d workers exceed the protocol-ID space (max %d)", cfg.Workers, MaxWorkers)
	}
	if cfg.BatchSize == 0 {
		cfg.BatchSize = 100
	}
	n := &Node{cfg: cfg, id: cfg.Endpoint.ID(), mux: transport.NewMux(cfg.Endpoint)}
	n.overload = 4 * cfg.BatchSize
	if cfg.State != nil {
		n.stateRep = statemachine.NewReplicaWith(cfg.State)
	}
	if cfg.DataDir != "" && cfg.SnapshotEvery > 0 {
		// Checkpoint cadence: a full merge cycle crossing the boundary
		// captures the app state once and compacts every worker's log. The
		// retained tail keeps (a) recovery anchors near the tip reachable
		// after a restart and (b) a full snapshot interval of blocks
		// servable to peers whose definite tips trail this node's by up to
		// one checkpoint cycle.
		n.retain = uint64((n.mux.N()-1)/3) + 2 + cfg.SnapshotEvery
	}
	if !cfg.SyncVerify {
		n.verify = cfg.VerifyPool
		if n.verify == nil {
			n.verify = flcrypto.NewVerifyPool(0, 0)
			n.ownVerify = true
		}
	}
	n.merger = newMerger(cfg.Workers, func(w uint32, blk types.Block) {
		if n.stateRep != nil {
			// Apply before Deliver/subscribers: by the time a client's
			// COMMIT receipt goes out, the state already covers its write,
			// so most receipt-anchored reads never block.
			n.stateRep.Deliver(w, blk)
		}
		if cfg.Deliver != nil {
			cfg.Deliver(w, blk)
		}
		n.subMu.RLock()
		subs := n.subs
		n.subMu.RUnlock()
		for _, s := range subs {
			s.fn(w, blk)
		}
		n.maybeCheckpoint(w, blk.Signed.Header.Round)
	})

	// Shared PBFT replica: the ordering substrate for OBBC fallbacks and
	// recovery versions, demultiplexed by request tag.
	n.replica = pbft.NewReplica(pbft.Config{
		Mux:         n.mux,
		Proto:       protoPBFT,
		Registry:    cfg.Registry,
		Priv:        cfg.Priv,
		VerifyPool:  n.verify,
		ViewTimeout: cfg.ViewTimeout,
		Deliver:     n.onOrdered,
	})

	for w := 0; w < cfg.Workers; w++ {
		if err := n.addWorker(uint32(w)); err != nil {
			return nil, err
		}
	}
	if n.restoreBest != nil || len(n.restoreBlocks) > 0 {
		// One unified restore across workers: load the freshest checkpoint
		// found into the backend (snapshots written in the same capture
		// carry identical state; a crash mid-checkpoint leaves some workers
		// one capture behind, and the per-worker StateRound clamp in
		// store.Checkpoint guarantees every round the freshest capture does
		// not cover is still in some worker's replayed log; no checkpoint
		// yet = the backend starts empty) and re-deliver all replayed
		// post-snapshot blocks in merged (round, worker) order — the
		// replica's positions skip what the checkpoint covers.
		blocks := n.restoreBlocks
		sort.Slice(blocks, func(i, j int) bool {
			hi, hj := &blocks[i].Signed.Header, &blocks[j].Signed.Header
			if hi.Round != hj.Round {
				return hi.Round < hj.Round
			}
			return hi.Instance < hj.Instance
		})
		var state []byte
		if n.restoreBest != nil {
			state = n.restoreBest.State
		}
		rep, err := statemachine.RestoreReplicaInto(cfg.State, state)
		if err != nil {
			return nil, fmt.Errorf("flo: state restore: %w", err)
		}
		for i := range blocks {
			rep.Deliver(blocks[i].Signed.Header.Instance, blocks[i])
		}
		n.stateRep = rep
		n.restoreBest, n.restoreBlocks = nil, nil
	}
	return n, nil
}

func (n *Node) addWorker(w uint32) error {
	base := protoWorkerBase + transport.ProtoID(protosPerWorker*w)
	cfg := n.cfg

	wrbSvc := wrb.New(wrb.Config{
		Mux:          n.mux,
		Proto:        base,
		Registry:     cfg.Registry,
		VerifyPool:   n.verify,
		InitialTimer: cfg.InitialTimer,
	})
	obbcSvc := obbc.New(obbc.Config{
		Mux:           n.mux,
		Proto:         base + 1,
		Instance:      w,
		Registry:      cfg.Registry,
		Priv:          cfg.Priv,
		VerifyPool:    n.verify,
		SubmitAB:      n.replica.Submit,
		ValidEvidence: wrbSvc.ValidEvidence,
		Evidence:      wrbSvc.EvidenceFor,
		OnPgd:         wrbSvc.OnPgd,
	})
	wrbSvc.BindOBBC(obbcSvc)

	var pool core.TxSource
	if cfg.Source != nil {
		pool = cfg.Source(w)
	} else {
		p := workload.NewPool(cfg.LeaseTimeout)
		n.pools = append(n.pools, p)
		pool = p
	}

	var preload []types.Block
	var preloadBase uint64
	var preloadHash flcrypto.Hash
	var persist func(types.Block) error
	var persistProp func(types.Block) error
	var preloadProps []types.Block
	var pruneProps func(uint64)
	if cfg.DataDir != "" {
		logPath := filepath.Join(cfg.DataDir, fmt.Sprintf("w%d.log", w))
		snapPath := filepath.Join(cfg.DataDir, fmt.Sprintf("w%d.snap", w))
		log, snap, replayed, err := store.OpenWorker(logPath, snapPath,
			store.Options{
				Registry:    cfg.Registry,
				Instance:    w,
				Sync:        cfg.SyncWrites,
				GroupCommit: cfg.SyncWrites,
			})
		if err != nil {
			return fmt.Errorf("flo: worker %d store: %w", w, err)
		}
		preload = replayed
		// Enqueue without waiting for the fsync (SyncWrites): the committer
		// acks batches in the background, validation errors still surface
		// here, and I/O failures are sticky on the log. Without SyncWrites
		// the write happens inline, exactly as Append would do it.
		persist = func(blk types.Block) error {
			_, err := log.AppendAsync(blk)
			return err
		}
		// The proposal log carries the one-signature-per-slot invariant
		// across restarts (see store.ProposalLog).
		props, replayedProps, err := store.OpenProposals(
			filepath.Join(cfg.DataDir, fmt.Sprintf("w%d.props", w)), cfg.SyncWrites)
		if err != nil {
			return fmt.Errorf("flo: worker %d proposal store: %w", w, err)
		}
		persistProp = props.Append
		preloadProps = replayedProps
		pruneProps = props.SetBound
		n.propLogs = append(n.propLogs, props)
		if snap != nil {
			preloadBase, preloadHash = snap.BaseRound, snap.BaseHash
		}
		if n.stateRep != nil {
			// Accumulate for the unified post-addWorker restore: the
			// freshest capture wins; each worker contributes its replayed
			// rounds above its own snapshot's StateRound (those may still
			// need re-applying) — its whole replayed log when it has no
			// checkpoint yet (SnapshotEvery unset or first cycle incomplete).
			var covered uint64
			if snap != nil {
				covered = snap.StateRound
				if n.restoreBest == nil || covered > n.restoreBest.StateRound {
					n.restoreBest = snap
				}
			}
			for i := range replayed {
				if replayed[i].Signed.Header.Round > covered {
					n.restoreBlocks = append(n.restoreBlocks, replayed[i])
				}
			}
		}
		// Seed the merged cursor at the boot frontier: restore re-applies
		// every replayed round, so the application state already covers
		// this worker through its replayed tip — a post-restart checkpoint
		// that runs before the worker's first new delivery must anchor its
		// StateRound there, not at zero (zero would bypass the compaction
		// clamp in store.Checkpoint).
		boot := preloadBase
		if len(preload) > 0 {
			boot = preload[len(preload)-1].Signed.Header.Round
		}
		n.merger.lastDelivered[w] = boot
		// Compaction happens at the merge point (maybeCheckpoint), not in
		// the per-worker commit stage: the app state captured there reflects
		// the merged delivery position across all ω pipelines.
		n.snapPaths = append(n.snapPaths, snapPath)
		n.logs = append(n.logs, log)
		n.snapLive = append(n.snapLive, snap)
	}

	var evpool *evidence.Pool
	if cfg.EnableEvidence || cfg.ExcludeConvicted {
		evpool = evidence.NewPool(cfg.Registry)
		if cfg.OnConviction != nil {
			onConv := cfg.OnConviction
			evpool.SetHooks(nil, func(rec evidence.Record) { onConv(w, rec) })
		}
	}
	n.evpools = append(n.evpools, evpool)

	inst := core.New(core.Config{
		Instance:         w,
		Mux:              n.mux,
		Registry:         cfg.Registry,
		Priv:             cfg.Priv,
		VerifyPool:       n.verify,
		WRB:              wrbSvc,
		OBBC:             obbcSvc,
		DataProto:        base + 3,
		SubmitAB:         n.replica.Submit,
		Pool:             pool,
		BatchSize:        cfg.BatchSize,
		EpochLen:         cfg.EpochLen,
		FDThreshold:      cfg.FDThreshold,
		Equivocate:       cfg.Equivocate,
		MaxPending:       cfg.MaxPending,
		DisablePiggyback: cfg.DisablePiggyback,
		Evidence:         evpool,
		ExcludeConvicted: cfg.ExcludeConvicted,
		UseGossip:        cfg.GossipBodies,
		GossipProto:      base + 4,
		GossipFanout:     cfg.GossipFanout,
		CompressBodies:   cfg.CompressBodies,
		CatchUpBatch:     cfg.CatchUpBatch,
		SnapChunkBytes:   cfg.SnapChunkBytes,
		Preload:          preload,
		PreloadBase:      preloadBase,
		PreloadBaseHash:  preloadHash,
		Persist:          persist,
		PersistProposal:  persistProp,
		PreloadProposals: preloadProps,
		PruneProposals:   pruneProps,
		OnDecide:         n.merger.enqueue(w),
		OnEvent: func(round uint64, ev core.Event) {
			if cfg.OnEvent != nil {
				cfg.OnEvent(w, round, ev)
			}
		},
	})
	// The reliable-broadcast channel for panic proofs.
	rbSvc := rbroadcast.New(n.mux, base+2, func(origin flcrypto.NodeID, seq uint64, payload []byte) {
		inst.OnPanic(origin, seq, payload)
	})
	inst.BindRB(rbSvc)
	if cfg.DataDir != "" {
		// Snapshot transfer: this worker can donate its freshest checkpoint
		// to stranded peers and install a downloaded one when it is the
		// stranded side (core/snapsync.go drives both directions).
		inst.BindSnapshots(
			func() (store.Snapshot, bool) { return n.latestSnapshot(w) },
			func(s store.Snapshot) error { return n.installSnapshot(w, s) },
		)
	}

	n.workers = append(n.workers, inst)
	n.obbcs = append(n.obbcs, obbcSvc)
	n.rbs = append(n.rbs, rbSvc)
	return nil
}

// onOrdered routes each atomically-ordered request to its consumer: an OBBC
// fallback instance or a worker's recovery tracker.
func (n *Node) onOrdered(_ uint64, batch [][]byte) {
	for _, req := range batch {
		routed := false
		for _, o := range n.obbcs {
			if o.HandleOrdered(req) {
				routed = true
				break
			}
		}
		if routed {
			continue
		}
		for _, w := range n.workers {
			if w.HandleOrdered(req) {
				break
			}
		}
	}
}

// ID returns the node's identity.
func (n *Node) ID() flcrypto.NodeID { return n.id }

// N returns the cluster size.
func (n *Node) N() int { return n.mux.N() }

// ErrCompacted reports a historical read below the retained history (the
// rounds survive only in a snapshot). Clients whose cursor falls below every
// source must restart from current state instead of replaying.
var ErrCompacted = store.ErrCompacted

// ReadDefinite returns up to max consecutive definite blocks of worker w
// starting at round `from` — the historical half of a client cursor replay
// (internal/clientapi). The persistent log is the primary source: replay
// reads from store.BlockLog when the node has one and the cursor is above
// its compaction base, then tops up from the in-memory chain (which covers
// rounds a group-commit batch has not flushed yet, and everything when the
// node runs without a DataDir). An empty result means the cursor sits at the
// definite frontier — the caller switches to the live SubscribeDeliver tail.
// A cursor below every source's base returns ErrCompacted.
func (n *Node) ReadDefinite(w uint32, from uint64, max int) ([]types.Block, error) {
	if int(w) >= len(n.workers) {
		return nil, fmt.Errorf("flo: worker %d out of range (ω=%d)", w, len(n.workers))
	}
	if from == 0 {
		return nil, fmt.Errorf("flo: round cursor starts at 1 (round 0 is the implicit genesis header)")
	}
	chain := n.workers[w].Chain()
	definite := chain.Definite()
	if from > definite {
		return nil, nil
	}
	count := max
	if avail := definite - from + 1; uint64(count) > avail {
		count = int(avail)
	}
	if count <= 0 {
		return nil, nil
	}
	var blocks []types.Block
	if len(n.logs) > 0 {
		if lg := n.logs[w]; from > lg.Base() {
			// I/O errors degrade to the chain path rather than failing the
			// stream: the chain holds every round the log does.
			if got, err := lg.ReadFrom(from, count); err == nil {
				blocks = got
			}
		}
	}
	for next := from + uint64(len(blocks)); len(blocks) < count; next++ {
		blk, ok := chain.BlockAt(next)
		if !ok {
			break
		}
		blocks = append(blocks, blk)
	}
	if len(blocks) == 0 && from <= chain.Base() {
		return nil, fmt.Errorf("%w: worker %d round %d predates retained history (base %d)",
			store.ErrCompacted, w, from, chain.Base())
	}
	return blocks, nil
}

// Start launches the transport, the PBFT replica, and all workers.
func (n *Node) Start() {
	n.merger.start()
	n.mux.Start()
	n.replica.Start()
	for _, w := range n.workers {
		w.Start()
	}
}

// Stop shuts the node down. Every block a round loop decided is persisted
// before the logs close; the merged stream ends at whatever prefix of those
// blocks was deliverable.
func (n *Node) Stop() {
	n.stopOnce.Do(func() {
		n.merger.unblock()
		for _, w := range n.workers {
			w.Stop()
		}
		n.merger.stop()
		for _, o := range n.obbcs {
			o.Stop()
		}
		for _, rb := range n.rbs {
			rb.Stop()
		}
		n.replica.Stop()
		n.mux.Stop()
		if n.ownVerify {
			n.verify.Close()
		}
		for _, log := range n.logs {
			log.Close()
		}
		for _, props := range n.propLogs {
			props.Close()
		}
	})
}

// Submit routes a client write to a worker pool (§6.2, scaled out). Routing
// is hash affinity on the client id: a session's writes land on one worker
// — preserving the per-session submission order through one pipeline —
// while distinct sessions spread uniformly across all ω pipelines. The cost
// is O(1) per submit regardless of ω (the previous least-loaded scan read
// every pool's mutex-guarded Pending on every call). When the affinity
// pool's backlog exceeds the overload guard (4·β), Submit consults the
// client's second hashed choice and takes the less loaded of the two — the
// power-of-two-choices fallback, still O(1) and still deterministic per
// client, so even an overloaded session touches at most two pools. It
// errors when the node draws its load from Config.Source.
func (n *Node) Submit(tx types.Transaction) error {
	if len(n.pools) == 0 {
		return fmt.Errorf("flo: node draws its load from Config.Source; Submit is for client pools")
	}
	if len(n.pools) == 1 {
		n.pools[0].Add(tx)
		return nil
	}
	w := affinity(tx.Client, 0, len(n.pools))
	if load := n.pools[w].Pending(); load > n.overload {
		alt := affinity(tx.Client, 1, len(n.pools))
		if alt == w {
			alt = (alt + 1) % len(n.pools)
		}
		if n.pools[alt].Pending() < load {
			w = alt
		}
	}
	n.pools[w].Add(tx)
	return nil
}

// affinity maps a client id onto one of n workers via the splitmix64
// finalizer — stateless, cheap, and well mixed even for dense sequential
// client ids. salt selects independent hash choices for the same client.
func affinity(client, salt uint64, n int) int {
	x := client + (salt+1)*0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return int(x % uint64(n))
}

// PoolPending reports the client transactions waiting or leased across this
// node's worker pools (0 with Config.Source) — a liveness probe for "is
// this write still in the system or was it dropped".
func (n *Node) PoolPending() int {
	total := 0
	for _, p := range n.pools {
		total += p.Pending()
	}
	return total
}

// Worker exposes worker w's core instance (chain access, metrics).
func (n *Node) Worker(w int) *core.Instance { return n.workers[w] }

// Workers returns ω.
func (n *Node) Workers() int { return len(n.workers) }

// Replica exposes the shared PBFT replica (metrics).
func (n *Node) Replica() *pbft.Replica { return n.replica }

// OBBCMetrics exposes worker w's OBBC fast-path/fallback counters.
func (n *Node) OBBCMetrics(w int) *obbc.Metrics { return n.obbcs[w].Metrics() }

// EvidencePool exposes worker w's evidence pool (nil unless EnableEvidence
// or ExcludeConvicted is set).
func (n *Node) EvidencePool(w int) *evidence.Pool { return n.evpools[w] }

// VerifyPool exposes the node's signature-verification pool (nil in
// SyncVerify mode) — harnesses read its Stats to report the cache hit rate.
func (n *Node) VerifyPool() *flcrypto.VerifyPool { return n.verify }

// DeliveredBlocks reports how many merged blocks this node has delivered.
func (n *Node) DeliveredBlocks() uint64 { return n.merger.delivered.Load() }

// DeliveredTxs reports how many transactions the merged log contains.
func (n *Node) DeliveredTxs() uint64 { return n.merger.txs.Load() }

// State exposes the node's managed ledger replica (nil when Config.State is
// unset).
func (n *Node) State() *statemachine.Replica { return n.stateRep }

// stateReplica resolves the managed replica and validates a consistency
// token against ω: a receipt names an existing worker, and a zero round
// (the zero token) means "read current state, no wait".
func (n *Node) stateReplica(worker uint32, round uint64) (*statemachine.Replica, error) {
	if n.stateRep == nil {
		return nil, statemachine.ErrNoState
	}
	if round > 0 && int(worker) >= len(n.workers) {
		return nil, fmt.Errorf("flo: read token worker %d out of range (ω=%d)", worker, len(n.workers))
	}
	return n.stateRep, nil
}

// StateGet returns key's value from the managed replica once the applied
// frontier covers the (worker, round) consistency token — take the token
// from a commit Receipt to read your own committed write. A zero round
// reads current state without waiting. Returns statemachine.ErrNoState when
// Config.State was not set.
func (n *Node) StateGet(ctx context.Context, key string, worker uint32, round uint64) ([]byte, bool, error) {
	rep, err := n.stateReplica(worker, round)
	if err != nil {
		return nil, false, err
	}
	if err := rep.WaitCovered(ctx, worker, round); err != nil {
		return nil, false, err
	}
	v, ok := rep.Get(key)
	return v, ok, nil
}

// StateScan returns up to max entries with begin <= key < end in ascending
// key order from the managed replica, under the same consistency-token
// semantics as StateGet.
func (n *Node) StateScan(ctx context.Context, begin, end string, max int, worker uint32, round uint64) ([]statemachine.Entry, error) {
	rep, err := n.stateReplica(worker, round)
	if err != nil {
		return nil, err
	}
	if err := rep.WaitCovered(ctx, worker, round); err != nil {
		return nil, err
	}
	return rep.Scan(begin, end, max), nil
}

// StateWatch watches key on the managed replica: once the applied frontier
// covers the token, the returned channel yields the key's current state and
// then every subsequent change (coalesced to the latest when the consumer
// lags) until cancel is called or ctx ends.
func (n *Node) StateWatch(ctx context.Context, key string, worker uint32, round uint64) (<-chan statemachine.KeyUpdate, func(), error) {
	rep, err := n.stateReplica(worker, round)
	if err != nil {
		return nil, nil, err
	}
	if err := rep.WaitCovered(ctx, worker, round); err != nil {
		return nil, nil, err
	}
	ch, cancel := rep.WatchKey(key)
	stop := context.AfterFunc(ctx, cancel)
	return ch, func() { stop(); cancel() }, nil
}
