package core

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/evidence"
	"repro/internal/flcrypto"
	"repro/internal/obbc"
	"repro/internal/rbroadcast"
	"repro/internal/store"
	"repro/internal/transport"
	"repro/internal/types"
	"repro/internal/wrb"
)

// TxSource supplies transactions for blocks. The pool semantics follow the
// paper's TX pool (Fig 3): NextBatch leases up to max transactions (a lease
// expires if the block carrying them is never finalized), MarkCommitted
// retires transactions that reached a definite block, and Release takes a
// lease back early: the instance calls it with a batch NextBatch returned
// once no block carrying it can be decided any more.
type TxSource interface {
	NextBatch(max int) []types.Transaction
	MarkCommitted(txs []types.Transaction)
	Release(batch []types.Transaction)
}

// Event identifies the per-round lifecycle points of Fig 9's breakdown.
type Event int

// The five events of §7.2.2 (E, FLO delivery, is emitted by the flo layer).
const (
	EventBlockProposed  Event = iota // A: the block body left the proposer
	EventHeaderProposed              // B: the header entered the consensus path
	EventTentative                   // C: tentative decision (appended to chain)
	EventDefinite                    // D: definite decision (depth f+2)
)

// Config assembles one FireLedger worker instance.
type Config struct {
	// Instance is the worker index (§6.2); instance 0 is the only one in a
	// plain FireLedger deployment.
	Instance uint32
	// Mux is the node's transport.
	Mux *transport.Mux
	// Registry and Priv identify the node.
	Registry *flcrypto.Registry
	Priv     flcrypto.PrivateKey
	// VerifyPool, when non-nil, routes the data-path and recovery signature
	// checks through the node's shared verification pool — recovery
	// versions and catch-up blocks re-present headers the node has usually
	// verified already, so they resolve from the cache. Nil verifies
	// synchronously (deterministic tests).
	VerifyPool *flcrypto.VerifyPool
	// WRB, OBBC, RB are the instance's protocol services (wired by the
	// node assembly; see flo.NewNode).
	WRB  *wrb.Service
	OBBC *obbc.Service
	RB   *rbroadcast.Service
	// DataProto is the mux protocol for the body/data path.
	DataProto transport.ProtoID
	// SubmitAB atomic-broadcasts recovery versions (PBFT Submit).
	SubmitAB func([]byte) error
	// Pool supplies transactions; nil means always-empty blocks.
	Pool TxSource
	// BatchSize is the paper's β: transactions per block (default 100).
	BatchSize int
	// OnDecide receives definite blocks in round order, on the instance's
	// commit stage (after Persist and Pool.MarkCommitted, off the round
	// loop). While it blocks, up to CommitDepth further decisions queue
	// behind it; then the round loop waits too.
	OnDecide func(blk types.Block)
	// OnEvent receives Fig 9 lifecycle events (may be nil).
	OnEvent func(round uint64, ev Event)
	// EpochLen reshuffles the proposer permutation every EpochLen rounds
	// (0 disables; see §6.1.1 "Consecutive Byzantine Proposers").
	EpochLen uint64
	// FDThreshold is the timeout-strike count before suspicion (default 2).
	FDThreshold int
	// Equivocate turns this node into the §7.4.2 Byzantine proposer: on
	// its turn it sends different blocks to two random halves of the
	// cluster. A fault-injection facility for experiments.
	Equivocate bool
	// MaxPending bounds how many non-definite rounds may be outstanding
	// before the proposer stops creating new blocks — the paper's basic
	// flow control (§7.2). 0 means no bound.
	MaxPending int
	// Preload installs an already-definite chain prefix before the round
	// loop starts — the restart path: blocks replayed from the persistent
	// store (internal/store) resume the node at its last finalized round.
	Preload []types.Block
	// PreloadBase / PreloadBaseHash anchor Preload after log compaction:
	// Preload[0] is round PreloadBase+1 and extends the block whose header
	// hash is PreloadBaseHash (the snapshot anchor). Zero values mean a
	// full log starting at round 1.
	PreloadBase     uint64
	PreloadBaseHash flcrypto.Hash
	// CatchUpBatch is the block count per streaming catch-up batch and the
	// behind-threshold that switches a lagging node from per-round pulls
	// to range sync (default 64; see rangesync.go).
	CatchUpBatch int
	// SnapChunkBytes caps one snapshot-transfer chunk (default 256 KiB; see
	// snapsync.go). Tests shrink it to force multi-chunk transfers.
	SnapChunkBytes int
	// Persist, when non-nil, receives every definite block before OnDecide,
	// on the commit stage (the durability hook; internal/store.BlockLog.Append
	// fits). Stop returns only after every block decided before it has been
	// handed to Persist.
	Persist func(types.Block) error
	// PersistProposal, when non-nil, receives every block this node signs
	// for a proposal slot, before the signature can leave the node; the
	// restart path feeds them back through PreloadProposals. Together they
	// extend the one-signature-per-slot invariant across restarts: a
	// rebooted proposer re-proposes its memoized block instead of signing
	// a fresh (different) one — which would be equivocation from the
	// evidence layer's point of view, and which can wedge a peer that
	// already finalized the original block behind a definite conflict.
	PersistProposal func(types.Block) error
	// PreloadProposals seeds the proposal memo on restart
	// (store.OpenProposals' replay fits).
	PreloadProposals []types.Block
	// PruneProposals, when non-nil, learns the definite boundary whenever
	// it advances, so the proposal store can drop slots that can never be
	// re-proposed.
	PruneProposals func(definite uint64)
	// DisablePiggyback turns off the §5.1 optimization that rides the next
	// block on the current round's OBBC vote; the proposer then pushes its
	// header explicitly at the start of its round instead. This is an
	// ablation switch: it converts the amortized one-phase protocol back
	// into the two-phase design of §5.1's strawman.
	DisablePiggyback bool
	// Evidence, when non-nil, activates the accountability path (paper §1:
	// "any Byzantine deviation ... results in a strong proof of which node
	// was the culprit"): equivocations observed through WRB or during
	// recovery are recorded in the pool, and pending conviction
	// transactions are embedded in this node's block proposals.
	Evidence *evidence.Pool
	// ExcludeConvicted additionally removes convicted nodes from the
	// proposer rotation ("the corresponding Byzantine node will be removed
	// from the system", §1). The exclusion is derived from conviction
	// transactions in definite blocks, so it activates at the same round at
	// every correct node; all nodes of a deployment must agree on this
	// setting.
	ExcludeConvicted bool
	// UseGossip disseminates block bodies by push-gossip on GossipProto
	// instead of the clique overlay (§7.2.2's alternative: less origin
	// egress, more hops). The pull-by-hash fallback stays in place, so a
	// missed rumor costs latency only. GossipFanout defaults to 3.
	UseGossip    bool
	GossipProto  transport.ProtoID
	GossipFanout int
	// CompressBodies DEFLATE-frames body payloads (the paper's conclusion
	// recommends compressing large transactions). Receivers auto-detect;
	// only senders need the switch.
	CompressBodies bool
}

// Metrics counts instance activity for the evaluation harness.
type Metrics struct {
	TentativeBlocks atomic.Uint64
	DefiniteBlocks  atomic.Uint64
	DefiniteTxs     atomic.Uint64
	NilRounds       atomic.Uint64
	Recoveries      atomic.Uint64
	SignOps         atomic.Uint64
	// Convictions counts culprits excluded from the rotation (with
	// ExcludeConvicted) or recorded on-chain (without).
	Convictions atomic.Uint64
	// CatchUpRangeReqs counts range-sync requests sent (each covers up to
	// maxBatchesPerReq × CatchUpBatch rounds); CatchUpRangeBlocks counts
	// blocks received and buffered off the range path; CatchUpBlockReqs
	// counts legacy one-round pull broadcasts. Together they make the
	// restart-cost acceptance criterion observable: a node N rounds behind
	// should see ~N/CatchUpBatch range requests, not N block requests.
	CatchUpRangeReqs   atomic.Uint64
	CatchUpRangeBlocks atomic.Uint64
	CatchUpBlockReqs   atomic.Uint64
	// TentativeResyncs counts rollbacks of a divergent tentative suffix in
	// favor of the cluster's definite chain during catch-up (see
	// resyncTentativeSuffix). Found by the simulation harness: a node that
	// tentatively delivered a proposal the partitioned majority later
	// re-decided used to wedge forever once the cluster outran the
	// recovery window.
	TentativeResyncs atomic.Uint64
	// Snapshot-transfer accounting (see snapsync.go). The donor side counts
	// chunks served; the requester side counts chunks/bytes fetched, resumes
	// after donor rotation, chunk-level hash rejections, whole-snapshot
	// rejections (digest/decode/attestation failures), and installs. A
	// campaign asserting that a stranded node actually recovered via
	// transfer — rather than silently range-syncing — checks SnapInstalls.
	SnapChunksServed  atomic.Uint64
	SnapChunksFetched atomic.Uint64
	SnapBytesFetched  atomic.Uint64
	SnapResumes       atomic.Uint64
	SnapChunkRejects  atomic.Uint64
	SnapRejected      atomic.Uint64
	SnapInstalls      atomic.Uint64
}

// CommitDepth bounds the definite blocks queued for a worker's commit stage.
// A disk (or a consumer behind OnDecide) that stops must stop consensus after
// this many rounds, not grow a heap; at a few hundred rounds a second it
// rides out a stall of about a second.
const CommitDepth = 256

// Instance is one FireLedger worker: a single-threaded round loop
// (Algorithm 2) over the WRB/OBBC/RB services, plus the recovery procedure
// (Algorithm 3) on the shared atomic broadcast. What follows a definite
// decision — persisting the block, retiring its transactions from the pool,
// handing it to OnDecide — runs on a second goroutine, the commit stage, fed
// in round order through a bounded queue, so a decision costs the round loop
// one channel send.
type Instance struct {
	cfg   Config
	id    flcrypto.NodeID
	n, f  int
	chain *Chain
	data  *dataPath
	sched *schedule
	fd    *failureDetector

	metrics Metrics

	stop    chan struct{}
	once    sync.Once
	stopped sync.WaitGroup // the round loop

	commitQ   chan types.Block // definite blocks in round order; closed by Stop
	committed sync.WaitGroup   // the commit stage

	// panicCh carries RB-delivered inconsistency proofs to the round loop;
	// panicPending closes the race between queuing a proof and the loop
	// starting its next delivery attempt.
	panicCh      chan Proof
	panicPending atomic.Bool

	// current attempt state, guarded by mu: the wire handlers use it to
	// kick/abort the in-flight delivery.
	mu         sync.Mutex
	currentKey obbc.Key
	abortCh    chan struct{}

	rec *recoveryTracker

	rng *rand.Rand // equivocator's half-picker

	// propMu guards propCache: this node's signed proposals memoized per
	// (round, parent) slot. A slot is signed at most once — re-proposing
	// after an aborted attempt or a recovery redo re-sends the identical
	// block — which is the behavior that makes the evidence layer's
	// same-slot-different-hash conviction predicate sound (a correct node
	// can never be framed; see internal/evidence).
	propMu    sync.Mutex
	propCache map[propKey]proposal
}

// New creates an instance. Call Start to run the round loop.
func New(cfg Config) *Instance {
	if cfg.BatchSize == 0 {
		cfg.BatchSize = 100
	}
	n := cfg.Mux.N()
	in := &Instance{
		cfg:     cfg,
		id:      cfg.Mux.ID(),
		n:       n,
		f:       (n - 1) / 3,
		chain:   NewChainAt(cfg.Instance, cfg.PreloadBase, cfg.PreloadBaseHash),
		stop:    make(chan struct{}),
		commitQ: make(chan types.Block, CommitDepth),
		panicCh: make(chan Proof, 16),
		abortCh: make(chan struct{}),
		rng:     rand.New(rand.NewSource(int64(cfg.Instance)*1000 + int64(cfg.Mux.ID()))),
	}
	in.sched = newSchedule(n, in.f, cfg.EpochLen)
	in.fd = newFailureDetector(in.f, cfg.FDThreshold)
	in.data = newDataPath(cfg.Mux, cfg.DataProto, cfg.Registry, cfg.VerifyPool, in.chain, &in.metrics, dataOpts{
		gossipProto:    cfg.GossipProto,
		useGossip:      cfg.UseGossip,
		fanout:         cfg.GossipFanout,
		compress:       cfg.CompressBodies,
		catchUpBatch:   cfg.CatchUpBatch,
		snapChunkBytes: cfg.SnapChunkBytes,
	})
	in.data.ranger = newRangeSyncer(in.data, in.id, n, in.stop, &in.metrics)
	in.data.snaps = newSnapSyncer(in.data, in.id, cfg.Instance, n, in.stop, &in.metrics)
	// The OBBC evidence path carries the block body (see wrb.SetBodyStore):
	// a node vouches for a header only when it holds the body, and a node
	// convinced by evidence receives the body with it.
	cfg.WRB.SetBodyStore(
		func(h flcrypto.Hash) ([]byte, bool) {
			body, ok := in.data.get(h)
			if !ok {
				return nil, false
			}
			return body.Marshal(), true
		},
		func(enc []byte) bool {
			d := types.NewDecoder(enc)
			body := types.DecodeBody(d)
			if d.Finish() != nil {
				return false
			}
			in.data.store(body)
			return true
		},
	)
	in.data.onBody = func(flcrypto.Hash) {
		in.mu.Lock()
		key := in.currentKey
		in.mu.Unlock()
		if key.Round != 0 {
			in.cfg.WRB.Kick(key)
		}
	}
	in.rec = newRecoveryTracker(in)
	in.data.onFetched = func(round uint64) {
		// A definite block at or below the round we are stuck on arrived
		// on the catch-up path: abort the attempt so the loop adopts it.
		// (At-or-below, not equal: by the time this fires the loop may be
		// attempting a later round than the batch's lowest entry.)
		in.mu.Lock()
		key := in.currentKey
		in.mu.Unlock()
		if key.Round != 0 && round <= key.Round {
			in.interrupt()
		}
	}
	cfg.OBBC.SetOnVote(func(from flcrypto.NodeID, key obbc.Key) {
		if key.Instance != in.cfg.Instance || from == in.id {
			return
		}
		// A vote is direct liveness evidence: a suspected peer that is
		// verifiably participating again (e.g. back from a partition) must
		// regain a real delivery timer on its turns, or the zero-wait nil
		// rounds it causes would re-suspect it forever (§6.1.1's invalidation
		// rule alone does not fire at low attempt numbers).
		in.fd.onAlive(from)
		if def := in.chain.Definite(); key.Round <= def {
			// The peer is behind (e.g., it restarted). A small gap gets the
			// block handed over directly; a deep gap gets a tip hint so the
			// peer range-syncs instead of being drip-fed one block per vote.
			if def-key.Round >= uint64(in.data.opts.catchUpBatch) {
				in.data.sendTipHint(from)
			} else {
				in.data.sendBlockTo(from, key.Round)
			}
			return
		}
		if key.Round > in.chain.Tip()+1 {
			// Votes for rounds beyond our tip mean we are the ones behind;
			// their definite frontier trails the vote round by at most
			// f+2. (Byzantine votes can at worst trigger range requests
			// that return empty and rotate away.)
			if gap := uint64(in.f) + 3; key.Round > gap {
				in.data.ranger.noteBehind(key.Round - gap)
			}
		}
	})
	// The chain is OBBC's input oracle for instances this node never voted
	// on (state discarded by a recovery's DropFrom, or the round adopted
	// wholesale via catch-up): a materialized block at (round, proposer)
	// means that instance decided 1; a block from a different proposer
	// means the rotation passed it by. Lets the node join a starved
	// fallback with a grounded input (see obbc.Config.ChainInput).
	cfg.OBBC.SetChainInput(func(key obbc.Key) (byte, bool) {
		if key.Instance != cfg.Instance {
			return 0, false
		}
		hdr, ok := in.chain.HeaderAt(key.Round)
		if !ok {
			return 0, false
		}
		if hdr.Proposer == key.Proposer {
			return 1, true
		}
		return 0, true
	})
	if cfg.Evidence != nil {
		// WRB sees two conflicting headers from the same proposer: a
		// ready-made equivocation proof.
		cfg.WRB.SetOnEquivocation(func(a, b types.SignedHeader) {
			if a.Header.Instance != in.cfg.Instance {
				return
			}
			in.cfg.Evidence.ObservePair(a, b)
		})
	}
	for _, blk := range cfg.Preload {
		if err := in.chain.Append(blk); err != nil {
			break
		}
	}
	in.chain.MarkDefinite(in.chain.Tip())
	// Re-seed the proposal memo from the persistent proposal log, dropping
	// slots at definite rounds (they can never be re-proposed).
	for _, blk := range cfg.PreloadProposals {
		hdr := blk.Signed.Header
		if hdr.Instance != cfg.Instance || hdr.Round <= in.chain.Definite() {
			continue
		}
		if in.propCache == nil {
			in.propCache = make(map[propKey]proposal)
		}
		in.propCache[propKey{round: hdr.Round, prev: hdr.PrevHash}] = proposal{blk: blk}
	}
	// Replayed blocks re-derive the conviction set: a restarted node ends
	// up with the same proposer exclusions as the rest of the cluster.
	// (Convictions below a compaction base were registered before the
	// snapshot was cut and their exclusions are already reflected in every
	// live node's schedule going forward.)
	for r := in.chain.Base() + 1; r <= in.chain.Tip(); r++ {
		if blk, ok := in.chain.BlockAt(r); ok {
			in.registerConvictions(blk)
		}
	}
	return in
}

// registerConvictions scans a definite block for conviction transactions
// and applies them: the pool records the proof (adopting foreign ones) and,
// with ExcludeConvicted, the culprit leaves the proposer rotation from an
// agreed round on.
//
// The effective round is R+f+3 for a conviction in the block at round R: a
// node computing round X's proposer has tip X−1 and therefore definite
// boundary X−f−3, so every conviction at rounds ≤ X−f−3 — exactly those
// with effective round ≤ X — has been scanned at every correct node by the
// time any of them evaluates round X. Blocks that deep are also beyond the
// recovery procedure's reach, so the derivation never reverses.
func (in *Instance) registerConvictions(blk types.Block) {
	if in.cfg.Evidence == nil && !in.cfg.ExcludeConvicted {
		return
	}
	round := blk.Header().Round
	for i := range blk.Body.Txs {
		tx := &blk.Body.Txs[i]
		if tx.Client != evidence.SystemClient {
			continue
		}
		eq, ok := evidence.ParseConvictionTx(*tx)
		if !ok || eq.Verify(in.cfg.Registry) != nil {
			continue // malformed conviction txs are inert filler
		}
		fresh := false
		if in.cfg.Evidence != nil {
			_, fresh = in.cfg.Evidence.IngestBlockTx(*tx, round)
		}
		if in.cfg.ExcludeConvicted {
			if in.sched.convict(eq.Culprit(), round+uint64(in.f)+3) {
				in.metrics.Convictions.Add(1)
			}
		} else if fresh {
			in.metrics.Convictions.Add(1)
		}
	}
}

// Convictions exposes the schedule's exclusion map (culprit → first
// excluded round) for observability and tests.
func (in *Instance) Convictions() map[flcrypto.NodeID]uint64 {
	return in.sched.convictions()
}

// Chain exposes the instance's blockchain (read access).
func (in *Instance) Chain() *Chain { return in.chain }

// BindRB installs the reliable-broadcast service used for panic proofs when
// it could not be passed in Config (its delivery callback needs the
// instance, so the wiring is circular).
func (in *Instance) BindRB(rb *rbroadcast.Service) { in.cfg.RB = rb }

// BindSnapshots wires the snapshot-transfer protocol to the node assembly
// (the wiring is circular, like BindRB: serving needs the node's checkpoint
// store, installing needs the node's logs and state replica). provide
// returns the freshest local checkpoint for donating to stranded peers;
// install atomically adopts a verified remote checkpoint — it must persist
// the snapshot, truncate the block log, restore application state, and then
// call AdoptSnapshot to re-anchor this instance's live chain. Either hook
// may be nil (that half of the protocol stays inert).
func (in *Instance) BindSnapshots(provide func() (store.Snapshot, bool), install func(store.Snapshot) error) {
	in.data.snaps.provide = provide
	in.data.snaps.install = install
}

// AdoptSnapshot re-anchors the live instance on an installed checkpoint:
// the in-memory chain resets forward to the snapshot base, buffered
// catch-up blocks and memoized proposals at covered rounds are dropped,
// per-round protocol state below the base is collected, and the round loop
// is interrupted so it resumes from the new tip. Callers (the flo install
// path) must have persisted the snapshot and truncated the block log first
// — durability before visibility, the same order the commit stage uses.
func (in *Instance) AdoptSnapshot(base uint64, baseHash flcrypto.Hash) error {
	if err := in.chain.ResetForward(base, baseHash); err != nil {
		return err
	}
	in.data.dropFetchedThrough(base)
	in.cfg.WRB.GC(in.cfg.Instance, base)
	in.cfg.OBBC.GC(in.cfg.Instance, base)
	in.pruneProposals(base)
	in.interrupt()
	return nil
}

// CompactTo releases this worker's in-memory blocks at rounds ≤ base and
// the data path's fetch bookkeeping below it. The embedding layer calls it
// after a durable checkpoint anchored at base: from then on the retained
// window — not the process's uptime — bounds what this node can range-serve,
// and peers that fell below it are rescued by snapshot transfer instead.
func (in *Instance) CompactTo(base uint64) error {
	if err := in.chain.CompactTo(base); err != nil {
		return err
	}
	in.data.dropFetchedThrough(base)
	return nil
}

// HandleOrdered routes one atomically-ordered request to this instance's
// recovery tracker. It returns false for requests belonging elsewhere.
func (in *Instance) HandleOrdered(req []byte) bool { return in.rec.HandleOrdered(req) }

// Metrics returns the instance counters.
func (in *Instance) Metrics() *Metrics { return &in.metrics }

// Start launches the round loop and the commit stage.
func (in *Instance) Start() {
	in.stopped.Add(1)
	in.committed.Add(1)
	go in.run()
	go in.commit()
}

// Stop terminates the round loop, aborting any in-flight delivery, and then
// lets the commit stage finish every block the loop decided.
func (in *Instance) Stop() {
	in.once.Do(func() {
		close(in.stop)
		in.interrupt()
		in.stopped.Wait()
		close(in.commitQ)
	})
	in.committed.Wait()
}

// OnPanic is the RB delivery callback (Algorithm 2 lines b12–b14): a valid
// proof diverts every correct node into the recovery procedure. The node
// assembly registers it with the instance's reliable-broadcast service.
func (in *Instance) OnPanic(origin flcrypto.NodeID, seq uint64, payload []byte) {
	d := types.NewDecoder(payload)
	proof := DecodeProof(d)
	if d.Finish() != nil {
		return
	}
	if proof.Curr.Header.Instance != in.cfg.Instance {
		return
	}
	if err := proof.VerifyPooled(in.cfg.Registry, in.cfg.VerifyPool); err != nil {
		return
	}
	select {
	case in.panicCh <- proof:
	default: // a recovery is already queued; one is enough
	}
	in.panicPending.Store(true)
	in.interrupt()
}

// DebugString summarizes live round-loop state for harness diagnostics: the
// attempt the loop is parked on, the buffered catch-up span, and whether the
// range syncer believes it is running.
func (in *Instance) DebugString() string {
	in.mu.Lock()
	key := in.currentKey
	in.mu.Unlock()
	lo, hi, n := in.data.fetchedSpan()
	return fmt.Sprintf("attempt=(round %d, proposer %d) fetched=[%d..%d]#%d rangerActive=%v",
		key.Round, key.Proposer, lo, hi, n, in.data.ranger.active())
}

// interrupt aborts the in-flight WRB delivery so the round loop regains
// control (the paper's panic thread interrupting the main thread, Fig 3).
func (in *Instance) interrupt() {
	in.mu.Lock()
	key := in.currentKey
	ch := in.abortCh
	in.abortCh = make(chan struct{})
	in.mu.Unlock()
	close(ch)
	if key.Round != 0 {
		in.cfg.OBBC.Abort(key)
	}
}

// beginAttempt installs the current delivery key and returns a fresh abort
// channel for this attempt. If a panic or Stop slipped in between attempts —
// their interrupt closed the previous attempt's channel, not this one — the
// channel comes pre-closed so the attempt aborts immediately.
func (in *Instance) beginAttempt(key obbc.Key) <-chan struct{} {
	in.mu.Lock()
	in.currentKey = key
	in.abortCh = make(chan struct{})
	ch := in.abortCh
	in.mu.Unlock()
	stopping := false
	select {
	case <-in.stop:
		stopping = true
	default:
	}
	if stopping || in.panicPending.Load() {
		in.interrupt()
	}
	return ch
}

func (in *Instance) event(round uint64, ev Event) {
	if in.cfg.OnEvent != nil {
		in.cfg.OnEvent(round, ev)
	}
}

// run is Algorithm 2's main loop.
func (in *Instance) run() {
	defer in.stopped.Done()
	attempt := 0
	fullMode := true // line 3
	for {
		select {
		case <-in.stop:
			return
		case proof := <-in.panicCh:
			in.panicPending.Store(false)
			if in.rec.runRecovery(proof) {
				attempt = 0
				fullMode = true
			}
			continue
		default:
		}

		ri := in.chain.Tip() + 1
		// Catch-up fast path: peers already finalized rounds we lack —
		// either a single handoff block or a range-synced stream. Adopt
		// the whole contiguous verified segment atomically (every block in
		// `fetched` was signature- and body-checked on arrival; Append
		// enforces the chain linkage).
		if seg := in.data.takeSegment(ri, 2*in.data.opts.catchUpBatch); len(seg) > 0 {
			adopted := 0
			for i := range seg {
				if in.chain.Append(seg[i]) != nil {
					if i == 0 && in.resyncTentativeSuffix(ri, seg) {
						adopted = -1 // suffix replaced; restart the loop
					}
					break // fork or gap: drop the rest, it will be refetched
				}
				adopted++
				in.metrics.TentativeBlocks.Add(1)
			}
			if adopted < 0 {
				attempt = 0
				fullMode = true
				continue
			}
			if adopted > 0 {
				tip := in.chain.Tip()
				if tip > uint64(in.f)+2 {
					in.finalizeThrough(tip - uint64(in.f) - 2)
				}
				if !in.data.ranger.active() {
					// Chase the next round proactively — but only outside
					// range sync, where per-round broadcasts are exactly
					// the O(rounds) cost the syncer exists to avoid.
					in.data.requestBlock(tip + 1)
				}
				attempt = 0
				fullMode = true
				continue
			}
		}
		proposer, skipped := in.sched.proposerFor(in.chain, ri, attempt)
		if skipped {
			// Lines b1–b3 skipped a recent proposer: the FD suspicion list
			// is invalidated (§6.1.1) so a skipped correct node regains
			// its turn.
			in.fd.invalidate()
		}
		key := obbc.Key{Instance: in.cfg.Instance, Round: ri, Proposer: proposer}
		abort := in.beginAttempt(key)
		if in.data.hasFetched(ri) {
			// A catch-up block for this round landed between the loop-top
			// check and the attempt installation — the window the
			// onFetched interrupt cannot see. Without this re-check the
			// loop would sit out a full delivery timer while adoptable
			// blocks pile up, throttling catch-up to a crawl.
			continue
		}

		// Lines 6–11: in full mode the round's proposer pushes its block
		// explicitly (no piggyback carried it). The equivocator always
		// pushes on its turn (it never piggybacks), as does every proposer
		// when the piggyback ablation is on. So does a proposer that built
		// no piggyback for this slot: it voted 0 on the previous round
		// (its window closed first) and the others decided it anyway.
		if proposer == in.id && (fullMode || in.cfg.Equivocate || in.cfg.DisablePiggyback ||
			!in.proposed(propKey{round: ri, prev: in.chain.TipHash()})) {
			in.proposeOwn(ri)
		}

		// Lines 12–15: try to deliver, piggybacking our next block if we
		// are the following round's proposer (§5.1). The piggyback closure
		// runs at vote time, when the current header (the next block's
		// parent) is known.
		pgdFn := func(hdr *types.SignedHeader) []byte {
			if hdr == nil || in.cfg.Equivocate || in.cfg.DisablePiggyback {
				return nil
			}
			return in.preparePiggyback(*hdr)
		}
		wait := in.cfg.WRB.CurrentTimer(in.cfg.Instance)
		suspected := in.fd.isSuspected(proposer)
		if suspected {
			wait = 0 // benign FD: do not wait for a suspected node (§6.1.1)
		}
		hdr, err := in.cfg.WRB.DeliverWithWait(key, pgdFn, in.acceptHeader, abort, wait)
		if err != nil {
			if errors.Is(err, wrb.ErrAborted) {
				continue // panic or stop; handled at loop top
			}
			continue
		}

		if hdr == nil {
			// Lines 16–20: agreed non-delivery; rotate the proposer.
			in.metrics.NilRounds.Add(1)
			if !suspected {
				// Only a wait we actually granted counts as a strike: a nil
				// round decided with zero wait is self-inflicted and proves
				// nothing new about the proposer.
				in.fd.onTimeout(proposer)
			}
			fullMode = true
			attempt++
			continue
		}
		in.fd.onDelivered(proposer)

		// Lines b4–b10: validate the chain linkage.
		if !in.validateLink(*hdr, ri) {
			if in.panicAbout(*hdr, ri) {
				// Wait for our own proof to RB-deliver back (it triggers
				// the recovery at the loop top); re-attempting the round
				// before then would just re-deliver the same bad header.
				select {
				case proof := <-in.panicCh:
					in.panicPending.Store(false)
					if in.rec.runRecovery(proof) {
						attempt = 0
						fullMode = true
					}
				case <-in.stop:
					return
				case <-time.After(10 * time.Second):
				}
			} else {
				// No proof can be built (round-1 edge case): all correct
				// nodes saw the same header fail the same check, so they
				// all rotate consistently.
				fullMode = true
				attempt++
			}
			continue
		}

		// Assemble the block (§6.1.1: fetch the body if we voted without it
		// — possible when delivery was decided by others).
		body, ok := in.data.waitBody(hdr.Header, abort)
		if !ok {
			continue
		}
		blk := types.Block{Signed: *hdr, Body: body}
		if blk.CheckBody() != nil {
			// The proposer signed a header whose body hash does not match
			// any real body — indistinguishable from a missing body; the
			// pull loop above only returns matching bodies, so this is
			// unreachable unless the store was evicted mid-flight.
			continue
		}

		// Line 22: append (tentative decision).
		if err := in.chain.Append(blk); err != nil {
			continue
		}
		in.metrics.TentativeBlocks.Add(1)
		in.event(ri, EventTentative)

		// Line b11: definite decision at depth f+2.
		if ri > uint64(in.f)+2 {
			in.finalizeThrough(ri - uint64(in.f) - 2)
		}

		fullMode = false
		attempt = 0
	}
}

// resyncTentativeSuffix resolves a catch-up conflict against the local
// tentative suffix. A verified catch-up block for round ri = tip+1 that does
// not link to our tip means our rounds (definite, tip] diverge from the
// chain the cluster finalized — an honest possibility: inside a partition we
// can WRB-deliver a proposal tentatively while the majority times the
// proposer out, rotates, and decides the round differently. Live, the next
// delivered header triggers a panic and the recovery replaces our suffix
// (Algorithm 3); but once the cluster has outrun the retained protocol
// state, no WRB delivery for our stuck round will ever come, and before this
// fix the node refetched the true chain forever while Append rejected every
// block (a permanent wedge the simulation harness found — seed-replayable).
//
// The resolution mirrors recovery: discard the tentative suffix (never
// definite state — ReplaceSuffix refuses that by construction) and re-adopt
// the cluster's chain from our definite boundary. The refetch-and-adopt runs
// inline on the round loop so a memoized WRB redelivery of the divergent
// proposal cannot re-append it mid-resync; definiteness of the adopted
// blocks still derives only from the depth-(f+2) rule over proposer-signed
// linkage, exactly like every other catch-up adoption. On timeout (no peer
// serves the gap) the truncation stands and the normal paths take over —
// at worst the old tentative blocks are re-delivered by WRB and the next
// conflicting segment retries. seg is the already-verified catch-up segment
// whose first block exposed the conflict; it is re-buffered after the
// truncation so the re-adoption below serves it from memory instead of
// refetching rounds the node just paid to verify. Returns true when it made
// progress (the caller restarts its loop).
func (in *Instance) resyncTentativeSuffix(ri uint64, seg []types.Block) bool {
	def := in.chain.Definite()
	if def >= ri-1 {
		// The conflicting parent is definite. Honest peers can never serve
		// a block conflicting with a definite round (safety), so this is
		// forged catch-up data: drop it, keep the chain.
		return false
	}
	if err := in.chain.ReplaceSuffix(def+1, nil); err != nil {
		return false
	}
	in.metrics.TentativeResyncs.Add(1)
	// The truncation moved the fetch window down to (def, def+window]; the
	// consumed segment's rounds [ri, ...) fall back inside it.
	in.data.storeFetched(seg)
	// Re-adopt from the definite boundary. The truncation moved the fetch
	// window down, so peers' responses for the uncovered rounds are now
	// storable; the range syncer (if alive) refetches on its own, and the
	// explicit per-round requests below cover the case where it already
	// gave up while we were wedged.
	deadline := time.Now().Add(2 * time.Second)
	for in.chain.Tip() < ri && time.Now().Before(deadline) {
		next := in.chain.Tip() + 1
		if seg := in.data.takeSegment(next, 2*in.data.opts.catchUpBatch); len(seg) > 0 {
			for i := range seg {
				if in.chain.Append(seg[i]) != nil {
					break
				}
				in.metrics.TentativeBlocks.Add(1)
			}
			continue
		}
		ch := in.data.updateChan()
		in.data.requestBlock(next)
		select {
		case <-ch:
		case <-time.After(50 * time.Millisecond):
		case <-in.stop:
			return true
		}
	}
	if tip := in.chain.Tip(); tip > uint64(in.f)+2 {
		in.finalizeThrough(tip - uint64(in.f) - 2)
	}
	return true
}

// finalizeThrough marks rounds ≤ r definite and hands them to the commit
// stage. Only protocol state is touched here, on the round loop.
func (in *Instance) finalizeThrough(r uint64) {
	for _, round := range in.chain.MarkDefinite(r) {
		blk, ok := in.chain.BlockAt(round)
		if !ok {
			continue
		}
		in.metrics.DefiniteBlocks.Add(1)
		in.metrics.DefiniteTxs.Add(uint64(len(blk.Body.Txs)))
		in.registerConvictions(blk)
		in.event(round, EventDefinite)
		in.commitQ <- blk // waits while the commit stage is CommitDepth behind
		in.data.drop(blk.Header().BodyHash)
	}
	// Protocol state below the definite boundary can never be needed again.
	def := in.chain.Definite()
	if def > 0 {
		in.cfg.WRB.GC(in.cfg.Instance, def)
		in.cfg.OBBC.GC(in.cfg.Instance, def)
		in.pruneProposals(def)
	}
}

// commit is the commit stage: each definite block, in round order, is
// persisted, retired from the pool and handed to OnDecide.
func (in *Instance) commit() {
	defer in.committed.Done()
	for blk := range in.commitQ {
		if in.cfg.Persist != nil {
			// Durability before visibility: a crash after this point
			// replays the block; a crash before it re-decides it. A
			// persistence failure is fatal for durability but not for
			// agreement; keep running, the operator sees the error through
			// the store, where it is sticky.
			_ = in.cfg.Persist(blk)
		}
		if in.cfg.Pool != nil {
			in.cfg.Pool.MarkCommitted(blk.Body.Txs)
		}
		if in.cfg.OnDecide != nil {
			in.cfg.OnDecide(blk)
		}
	}
}

// acceptHeader is the WRB accept predicate: vote for a header only when its
// body is locally available (§6.1.1). A miss proactively pulls the body, so
// a node that dissemination skipped (possible under gossip, §7.2.2) chases
// the data inside its delivery window instead of timing out.
func (in *Instance) acceptHeader(hdr types.SignedHeader) bool {
	if in.data.have(hdr.Header.BodyHash) {
		return true
	}
	in.data.maybeRequestBody(hdr.Header.BodyHash)
	return false
}

// validateLink checks that hdr extends the local chain at round ri.
func (in *Instance) validateLink(hdr types.SignedHeader, ri uint64) bool {
	h := hdr.Header
	return h.Round == ri && h.PrevHash == in.chain.TipHash()
}

// panicAbout RB-broadcasts the inconsistency proof (lines b6–b7) and reports
// whether a proof could be constructed. The proof loops back through
// OnPanic, which triggers the recovery.
func (in *Instance) panicAbout(hdr types.SignedHeader, ri uint64) bool {
	prev, ok := in.chain.SignedAt(ri - 1)
	if !ok {
		// Round 1 inconsistency: the predecessor is the unsigned genesis,
		// so no two-signature proof exists. The deviation is local-only
		// (the proposer's header does not extend genesis), and WRB
		// agreement means every correct node saw the same header.
		in.metrics.NilRounds.Add(1)
		return false
	}
	proof := Proof{Curr: hdr, Prev: prev}
	if proof.VerifyPooled(in.cfg.Registry, in.cfg.VerifyPool) != nil {
		return false
	}
	in.fd.invalidate() // Byzantine activity detected (§6.1.1)
	_, err := in.cfg.RB.Broadcast(proof.Marshal())
	return err == nil
}

// proposeOwn builds and disseminates this node's block for round ri: body on
// the data path, header through WRB (lines 6–11).
func (in *Instance) proposeOwn(ri uint64) {
	if in.cfg.Equivocate {
		in.proposeEquivocating(ri)
		return
	}
	if in.cfg.MaxPending > 0 && in.chain.Tip()-in.chain.Definite() > uint64(in.cfg.MaxPending) {
		// Flow control: too many undecided blocks outstanding (§7.2).
		return
	}
	blk, err := in.buildBlock(ri, in.chain.TipHash())
	if err != nil {
		return
	}
	in.data.broadcastBody(&blk.Body)
	in.event(ri, EventBlockProposed)
	in.cfg.WRB.Broadcast(blk.Signed)
	in.event(ri, EventHeaderProposed)
}

// preparePiggyback builds this node's block for round parent.Round+1 on top
// of parent, disseminates the body, and returns the encoded signed header to
// ride on the current vote — but only if this node is that round's proposer.
func (in *Instance) preparePiggyback(parent types.SignedHeader) []byte {
	nextRound := parent.Header.Round + 1
	// The next round's proposer is computed as if parent is decided.
	next := in.nextProposerAfter(parent)
	if next != in.id {
		return nil
	}
	if in.cfg.MaxPending > 0 && in.chain.Tip()-in.chain.Definite() > uint64(in.cfg.MaxPending) {
		return nil
	}
	blk, err := in.buildBlock(nextRound, parent.HeaderHash())
	if err != nil {
		return nil
	}
	in.data.broadcastBody(&blk.Body)
	in.event(nextRound, EventBlockProposed)
	e := types.NewEncoder(192)
	blk.Signed.Encode(e)
	in.event(nextRound, EventHeaderProposed)
	return e.Bytes()
}

// nextProposerAfter computes round parent.Round+1's attempt-0 proposer given
// that parent decides its round. It mirrors schedule.proposerFor but with
// the parent header supplying the not-yet-appended round.
func (in *Instance) nextProposerAfter(parent types.SignedHeader) flcrypto.NodeID {
	round := parent.Header.Round + 1
	order := in.sched.orderFor(in.chain, round)
	start := 0
	for i, id := range order {
		if id == parent.Header.Proposer {
			start = i + 1
			break
		}
	}
	skip := map[flcrypto.NodeID]bool{parent.Header.Proposer: true}
	if round >= 2 {
		lo := uint64(1)
		if round > uint64(in.f) {
			lo = round - uint64(in.f)
		}
		for _, p := range in.chain.ProposersOf(lo, round-2) {
			skip[p] = true
		}
	}
	for i := 0; ; i++ {
		cand := order[(start+i)%in.n]
		if !skip[cand] && !in.sched.excluded(cand, round) {
			return cand
		}
	}
}

// proposeEquivocating is the §7.4.2 Byzantine behavior: split the cluster
// into two random halves and send each a different version of the block.
func (in *Instance) proposeEquivocating(ri uint64) {
	prev := in.chain.TipHash()
	blkA, errA := in.buildBlock(ri, prev)
	blkB, errB := in.buildBlock(ri, prev)
	if errA != nil || errB != nil {
		return
	}
	if blkA.Hash() == blkB.Hash() {
		// Identical blocks (empty pool): derive a perturbed version. The
		// original block's body is frozen (its encoding is memoized), so the
		// variant is built as a fresh body over a fresh transaction slice
		// rather than mutated in place.
		txs := append(append([]types.Transaction(nil), blkB.Body.Txs...),
			types.Transaction{Client: ^uint64(0), Seq: ri})
		body := types.Body{Txs: txs}
		hdr := blkB.Signed.Header
		hdr.BodyHash = body.Hash()
		hdr.TxCount = uint32(len(txs))
		signed, err := hdr.Sign(in.cfg.Priv)
		if err != nil {
			return
		}
		blkB = types.Block{Signed: signed, Body: body}
	}
	perm := in.rng.Perm(in.n)
	half := in.n / 2
	for idx, p := range perm {
		to := flcrypto.NodeID(p)
		blk := &blkA
		if idx >= half {
			blk = &blkB
		}
		in.data.sendBodyTo(to, &blk.Body)
		in.cfg.WRB.PushTo(to, blk.Signed)
	}
	in.event(ri, EventBlockProposed)
	in.event(ri, EventHeaderProposed)
}
