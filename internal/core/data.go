package core

import (
	"sync"
	"time"

	"repro/internal/compress"
	"repro/internal/flcrypto"
	"repro/internal/gossip"
	"repro/internal/transport"
	"repro/internal/types"
)

// Wire kinds on the data path (§6.1.1: block bodies travel asynchronously,
// outside the consensus path). Body payloads travel as self-describing
// compress frames, so compression is a per-sender choice the receiver never
// has to be configured for.
const (
	kindBody      = 1 // proactive body dissemination (framed body)
	kindReqBody   = 2 // body pull by hash
	kindRespBody  = 3 // pull response (framed body)
	kindReqBlock  = 4 // definite-block pull by round (recovery catch-up)
	kindRespBlock = 5
	kindReqRange  = 6 // streaming catch-up: [from, to) definite rounds from one peer
	kindRespRange = 7 // one size-capped batch of a range stream
	kindTipHint   = 8 // definite-tip announcement pushed to a lagging peer

	// Snapshot transfer (see snapsync.go): the recovery path for a node
	// stranded below every peer's retained history, where range sync cannot
	// help because the rounds it needs have been compacted away everywhere.
	kindReqSnapMeta   = 9  // advertise your freshest checkpoint (reqID)
	kindRespSnapMeta  = 10 // checkpoint advertisement (base, state round, size, hash)
	kindReqSnapChunk  = 11 // one size-capped chunk of a pinned checkpoint
	kindRespSnapChunk = 12 // chunk payload + cumulative hash-chain value
	kindReqAnchor     = 13 // header-hash attestation request for one round
	kindRespAnchor    = 14 // attestation response (hash or abstention)
)

// Range-stream tuning: a batch never exceeds maxRangeBatchBytes of encoded
// blocks (so one response cannot monopolize the wire), and one request is
// answered with at most maxBatchesPerReq batches (so the requester paces the
// stream — it re-requests from its new frontier once a window is consumed,
// which also keeps a crashed requester from being flooded forever).
const (
	maxRangeBatchBytes = 512 << 10
	maxBatchesPerReq   = 8
	// maxRangeRespBlocks hard-bounds a decoded batch regardless of the
	// sender's claimed configuration.
	maxRangeRespBlocks = 4096
)

// dataOpts selects the dissemination and encoding strategy of a data path.
type dataOpts struct {
	// gossipProto, when useGossip is set, carries rumor messages (its own
	// mux tag; see internal/gossip).
	gossipProto transport.ProtoID
	useGossip   bool
	fanout      int
	// compress DEFLATE-frames body payloads at least compress.MinSize long
	// (the paper's conclusion for large σ).
	compress bool
	// catchUpBatch is the block count per range-sync batch (flo.Config's
	// CatchUpBatch; default 64). It doubles as the behind-threshold: a node
	// ≥ one batch behind switches from per-round pulls to range sync.
	catchUpBatch int
	// snapChunkBytes caps one snapshot-transfer chunk (default 256 KiB).
	// Small values force multi-chunk transfers — the fault-injection tests
	// use that to exercise resume.
	snapChunkBytes int
}

// dataPath owns body dissemination, the body store, and block catch-up for
// one worker instance.
type dataPath struct {
	mux   *transport.Mux
	proto transport.ProtoID
	reg   *flcrypto.Registry
	pool  *flcrypto.VerifyPool // nil = synchronous verification
	chain *Chain
	opts  dataOpts
	rumor *gossip.Disseminator // nil on the clique overlay

	// onBody is invoked (on the transport goroutine) when a new body
	// arrives, so the instance can re-kick a pending WRB delivery.
	onBody func(bodyHash flcrypto.Hash)
	// onFetched is invoked when a definite block arrives on the catch-up
	// path, so the instance can divert from a stuck round to adopt it.
	onFetched func(round uint64)

	// metrics is the owning instance's counter block (catch-up request
	// accounting); never nil.
	metrics *Metrics
	// ranger drives streaming range catch-up (see rangesync.go).
	ranger *rangeSyncer
	// snaps drives snapshot transfer for stranded nodes (see snapsync.go);
	// may be nil on bare data paths (protocol-level tests).
	snaps *snapSyncer

	mu     sync.Mutex
	bodies map[flcrypto.Hash]types.Body
	// fetched holds catch-up blocks by round, pending adoption by the round
	// loop. Every insert path verifies signature and body first, so
	// adoption only needs to enforce chain linkage. The map is bounded to a
	// window above the chain tip (see storeFetched): a Byzantine flood of
	// validly-signed far-future blocks costs the flooder its traffic, not
	// this node's memory.
	fetched map[uint64]types.Block
	update  chan struct{}

	// lastPull rate-limits the proactive pull-on-accept-miss per body hash
	// (one request per hash per interval); see maybeRequestBody.
	lastPull map[flcrypto.Hash]time.Time
}

// pullRetryInterval paces proactive body pulls from the accept predicate,
// and is how long each one waits for the body to arrive unasked.
const pullRetryInterval = 5 * time.Millisecond

// maxPullEntries bounds the pacing map; beyond it, expired entries are swept
// and — if everything is fresh — arbitrary entries are evicted (re-sending a
// pull early is harmless, growing without bound is not).
const maxPullEntries = 1024

// maybeRequestBody broadcasts a pull for hash unless one was recently sent
// for that same hash — called from the vote-accept path so a node a gossip
// rumor missed recovers the body before its delivery timer runs out, not
// after. The pull leaves one pullRetryInterval after the miss, and only if
// the body is still missing then: a verified header usually overtakes its
// own body, which is larger and is hashed before it is stored, and every
// peer answers a pull with the whole body, so pulling at once mostly buys
// n−1 duplicate copies of a body already on its way. Pacing is per hash:
// misses alternating between two hashes (e.g. the current round's body and
// a piggybacked next block) must not bypass the limiter, and a new hash
// must not reset another hash's pacing window.
func (dp *dataPath) maybeRequestBody(hash flcrypto.Hash) {
	now := time.Now()
	dp.mu.Lock()
	if t, ok := dp.lastPull[hash]; ok && now.Sub(t) < pullRetryInterval {
		dp.mu.Unlock()
		return
	}
	if len(dp.lastPull) >= maxPullEntries {
		for h, t := range dp.lastPull {
			if now.Sub(t) >= pullRetryInterval {
				delete(dp.lastPull, h)
			}
		}
		for h := range dp.lastPull {
			if len(dp.lastPull) < maxPullEntries {
				break
			}
			delete(dp.lastPull, h)
		}
	}
	dp.lastPull[hash] = now
	dp.mu.Unlock()
	time.AfterFunc(pullRetryInterval, func() {
		if dp.have(hash) {
			return
		}
		e := types.GetEncoder(40)
		e.Uint8(kindReqBody)
		e.Hash(hash)
		dp.mux.Broadcast(dp.proto, e.Bytes())
		e.Release()
	})
}

// maxStoredBodies bounds the body store; bodies of definite blocks live in
// the chain, so the store only needs to cover in-flight rounds.
const maxStoredBodies = 4096

func newDataPath(mux *transport.Mux, proto transport.ProtoID, reg *flcrypto.Registry, pool *flcrypto.VerifyPool, chain *Chain, metrics *Metrics, opts dataOpts) *dataPath {
	if opts.catchUpBatch <= 0 {
		opts.catchUpBatch = 64
	}
	if opts.snapChunkBytes <= 0 {
		opts.snapChunkBytes = defaultSnapChunkBytes
	}
	dp := &dataPath{
		mux:      mux,
		proto:    proto,
		reg:      reg,
		pool:     pool,
		chain:    chain,
		metrics:  metrics,
		opts:     opts,
		bodies:   make(map[flcrypto.Hash]types.Body),
		fetched:  make(map[uint64]types.Block),
		update:   make(chan struct{}),
		lastPull: make(map[flcrypto.Hash]time.Time),
	}
	// Every data-path message has a pull/retry fallback (bodies are
	// re-pullable by hash, catch-up blocks are re-requested in a loop), so
	// the mailbox drops on overflow: a body flood — the cheapest Byzantine
	// flooding vector, since bodies are the largest messages — costs the
	// flooder its own traffic and cannot stall the consensus protocols.
	mux.HandleWith(proto, dp.onWire, transport.MailboxConfig{Policy: transport.DropNewest})
	if opts.useGossip {
		dp.rumor = gossip.New(gossip.Config{
			Mux:     mux,
			Proto:   opts.gossipProto,
			Fanout:  opts.fanout,
			Deliver: dp.ingestFrame,
		})
	}
	return dp
}

// frameBody encodes a body as a self-describing compress frame. With
// compression off the frame stores the bytes verbatim (one tag byte).
func (dp *dataPath) frameBody(body *types.Body) []byte {
	enc := body.Marshal()
	if dp.opts.compress {
		return compress.Frame(enc, 0)
	}
	return compress.Frame(enc, len(enc)+1) // threshold above size: stored
}

// ingestFrame decodes and stores a framed body arriving from dissemination
// (clique push, gossip rumor, or pull response).
func (dp *dataPath) ingestFrame(frame []byte) {
	enc, err := compress.Unframe(frame, 0)
	if err != nil {
		return
	}
	d := types.NewDecoder(enc)
	body := types.DecodeBody(d)
	if d.Finish() != nil {
		return
	}
	dp.store(body)
}

// have reports whether the body for hash is obtainable locally. The empty
// body needs no dissemination.
func (dp *dataPath) have(hash flcrypto.Hash) bool {
	if hash == types.EmptyBodyHash() {
		return true
	}
	dp.mu.Lock()
	defer dp.mu.Unlock()
	_, ok := dp.bodies[hash]
	return ok
}

// get returns the stored body for hash.
func (dp *dataPath) get(hash flcrypto.Hash) (types.Body, bool) {
	if hash == types.EmptyBodyHash() {
		return types.Body{}, true
	}
	dp.mu.Lock()
	defer dp.mu.Unlock()
	b, ok := dp.bodies[hash]
	return b, ok
}

func (dp *dataPath) store(body types.Body) {
	hash := body.Hash()
	dp.mu.Lock()
	if _, dup := dp.bodies[hash]; dup {
		dp.mu.Unlock()
		return
	}
	if len(dp.bodies) >= maxStoredBodies {
		// Evict an arbitrary entry; losing a body is safe (it can be
		// re-pulled), it only costs latency.
		for k := range dp.bodies {
			delete(dp.bodies, k)
			break
		}
	}
	dp.bodies[hash] = body
	close(dp.update)
	dp.update = make(chan struct{})
	dp.mu.Unlock()
	if dp.onBody != nil {
		dp.onBody(hash)
	}
}

// drop removes bodies that have been absorbed into definite blocks.
func (dp *dataPath) drop(hash flcrypto.Hash) {
	dp.mu.Lock()
	delete(dp.bodies, hash)
	dp.mu.Unlock()
}

// broadcastBody pushes a body to every node ("a node broadcasts a block as
// soon as the block is ready", §6.1.1) — or originates a gossip rumor when
// the gossip overlay is selected (§7.2.2's alternative).
func (dp *dataPath) broadcastBody(body *types.Body) error {
	// The origin keeps its own body first: gossip does not self-deliver,
	// and the proposer must be able to vote for (and serve pulls of) its
	// own block.
	dp.store(*body)
	frame := dp.frameBody(body)
	if dp.rumor != nil {
		return dp.rumor.Broadcast(frame)
	}
	e := types.GetEncoder(8 + len(frame))
	e.Uint8(kindBody)
	e.Bytes32(frame)
	err := dp.mux.Broadcast(dp.proto, e.Bytes())
	e.Release()
	return err
}

// sendBodyTo sends a body to a single node (used by the Byzantine
// equivocator harness behavior, §7.4.2).
func (dp *dataPath) sendBodyTo(to flcrypto.NodeID, body *types.Body) error {
	frame := dp.frameBody(body)
	e := types.GetEncoder(8 + len(frame))
	e.Uint8(kindBody)
	e.Bytes32(frame)
	err := dp.mux.Send(dp.proto, to, e.Bytes())
	e.Release()
	return err
}

func (dp *dataPath) onWire(from flcrypto.NodeID, buf []byte) {
	d := types.NewDecoder(buf)
	switch d.Uint8() {
	case kindBody, kindRespBody:
		frame := d.Bytes32()
		if d.Finish() != nil {
			return
		}
		dp.ingestFrame(frame)
	case kindReqBody:
		hash := d.Hash()
		if d.Finish() != nil {
			return
		}
		if body, ok := dp.get(hash); ok {
			frame := dp.frameBody(&body)
			e := types.GetEncoder(8 + len(frame))
			e.Uint8(kindRespBody)
			e.Bytes32(frame)
			dp.mux.Send(dp.proto, from, e.Bytes())
			e.Release()
		}
	case kindReqBlock:
		round := d.Uint64()
		if d.Finish() != nil {
			return
		}
		// Serve only definite blocks: tentative ones may still change.
		if round == 0 || round > dp.chain.Definite() {
			return
		}
		if blk, ok := dp.chain.BlockAt(round); ok {
			e := types.GetEncoder(64 + blk.Body.Size())
			e.Uint8(kindRespBlock)
			blk.Encode(e)
			dp.mux.Send(dp.proto, from, e.Bytes())
			e.Release()
		}
	case kindRespBlock:
		blk := types.DecodeBlock(d)
		if d.Finish() != nil {
			return
		}
		if !blk.Signed.VerifyPooled(dp.reg, dp.pool) || blk.CheckBody() != nil {
			return
		}
		dp.storeFetched([]types.Block{blk})
	case kindReqRange:
		reqID := d.Uint64()
		lo := d.Uint64()
		hi := d.Uint64()
		if d.Finish() != nil {
			return
		}
		dp.serveRange(from, reqID, lo, hi)
	case kindRespRange:
		reqID := d.Uint64()
		serverDef := d.Uint64()
		firstAvail := d.Uint64()
		more := d.Bool()
		count := d.Uint32()
		if count > maxRangeRespBlocks {
			return
		}
		blks := make([]types.Block, 0, count)
		for i := uint32(0); i < count && d.Err() == nil; i++ {
			blks = append(blks, types.DecodeBlock(d))
		}
		if d.Finish() != nil {
			return
		}
		// Pipeline the batch's signature checks through the shared verify
		// pool, then keep only the valid blocks.
		valid := dp.verifyBlocks(blks)
		kept := blks[:0]
		for i := range blks {
			if valid[i] {
				kept = append(kept, blks[i])
			}
		}
		stored := dp.storeFetched(kept)
		dp.metrics.CatchUpRangeBlocks.Add(uint64(stored))
		if dp.ranger != nil {
			dp.ranger.onBatch(reqID, serverDef, firstAvail, more, stored)
		}
	case kindTipHint:
		def := d.Uint64()
		if d.Finish() != nil {
			return
		}
		if dp.ranger != nil {
			dp.ranger.noteBehind(def)
		}
	case kindReqSnapMeta:
		reqID := d.Uint64()
		if d.Finish() != nil {
			return
		}
		if dp.snaps != nil {
			dp.snaps.serveMeta(from, reqID)
		}
	case kindRespSnapMeta:
		reqID := d.Uint64()
		var meta snapMeta
		meta.present = d.Bool()
		if meta.present {
			meta.baseRound = d.Uint64()
			meta.baseHash = d.Hash()
			meta.stateRound = d.Uint64()
			meta.totalLen = d.Uint32()
			meta.snapHash = d.Hash()
			meta.chunkSize = d.Uint32()
		}
		if d.Finish() != nil {
			return
		}
		if dp.snaps != nil {
			dp.snaps.deliver(reqID, snapResp{from: from, meta: meta})
		}
	case kindReqSnapChunk:
		reqID := d.Uint64()
		base := d.Uint64()
		offset := d.Uint32()
		if d.Finish() != nil {
			return
		}
		if dp.snaps != nil {
			dp.snaps.serveChunk(from, reqID, base, offset)
		}
	case kindRespSnapChunk:
		reqID := d.Uint64()
		gone := d.Bool()
		var offset uint32
		var chain flcrypto.Hash
		var data []byte
		if !gone {
			offset = d.Uint32()
			chain = d.Hash()
			data = append([]byte(nil), d.Bytes32()...)
		}
		if d.Finish() != nil {
			return
		}
		if dp.snaps != nil {
			dp.snaps.deliver(reqID, snapResp{from: from, gone: gone, offset: offset, chain: chain, data: data})
		}
	case kindReqAnchor:
		reqID := d.Uint64()
		round := d.Uint64()
		if d.Finish() != nil {
			return
		}
		h, ok := dp.chain.HashAt(round)
		e := types.GetEncoder(64)
		e.Uint8(kindRespAnchor)
		e.Uint64(reqID)
		e.Uint64(round)
		e.Bool(ok)
		e.Hash(h)
		dp.mux.Send(dp.proto, from, e.Bytes())
		e.Release()
	case kindRespAnchor:
		reqID := d.Uint64()
		round := d.Uint64()
		ok := d.Bool()
		h := d.Hash()
		if d.Finish() != nil {
			return
		}
		if dp.snaps != nil {
			dp.snaps.deliver(reqID, snapResp{from: from, round: round, ok: ok, hash: h})
		}
	}
}

// verifyBlocks checks signatures and bodies of a batch, fanning the
// signature work out to the shared verify pool so a large catch-up batch
// verifies across all pool workers instead of serially on the transport
// goroutine.
func (dp *dataPath) verifyBlocks(blks []types.Block) []bool {
	res := make([]bool, len(blks))
	if dp.pool == nil {
		for i := range blks {
			res[i] = blks[i].CheckBody() == nil && blks[i].Signed.Verify(dp.reg)
		}
		return res
	}
	var wg sync.WaitGroup
	for i := range blks {
		if blks[i].CheckBody() != nil {
			continue
		}
		i := i
		sh := blks[i].Signed
		wg.Add(1)
		dp.pool.VerifyAsyncNode(dp.reg, sh.Header.Proposer, sh.HeaderBytes(), sh.Sig, func(ok bool) {
			res[i] = ok
			wg.Done()
		})
	}
	wg.Wait()
	return res
}

// serveRange answers one range-sync request: stream rounds [lo, hi) — a
// zero hi means "everything definite" — to the requester in size- and
// count-capped batches, at most maxBatchesPerReq per request. Each batch
// carries this node's definite tip and first available round so the
// requester can retarget (the tip may have advanced; the prefix may have
// been compacted away).
func (dp *dataPath) serveRange(to flcrypto.NodeID, reqID, lo, hi uint64) {
	def := dp.chain.Definite()
	firstAvail := dp.chain.Base() + 1
	if lo < firstAvail {
		lo = firstAvail
	}
	last := def
	if hi > 0 && hi-1 < last {
		last = hi - 1
	}
	r := lo
	for batches := 0; batches < maxBatchesPerReq; batches++ {
		var blks []types.Block
		bytes := 0
		for r <= last && len(blks) < dp.opts.catchUpBatch && bytes < maxRangeBatchBytes {
			blk, ok := dp.chain.BlockAt(r)
			if !ok {
				last = r - 1
				break
			}
			blks = append(blks, blk)
			bytes += 64 + blk.Body.Size()
			r++
		}
		more := r <= last && batches+1 < maxBatchesPerReq
		e := types.GetEncoder(64 + bytes)
		e.Uint8(kindRespRange)
		e.Uint64(reqID)
		e.Uint64(def)
		e.Uint64(firstAvail)
		e.Bool(more)
		e.Uint32(uint32(len(blks)))
		for i := range blks {
			blks[i].Encode(e)
		}
		dp.mux.Send(dp.proto, to, e.Bytes())
		e.Release()
		if !more {
			return
		}
	}
}

// sendRangeReq asks one peer for definite rounds [from, to).
func (dp *dataPath) sendRangeReq(peer flcrypto.NodeID, reqID, from, to uint64) {
	e := types.GetEncoder(32)
	e.Uint8(kindReqRange)
	e.Uint64(reqID)
	e.Uint64(from)
	e.Uint64(to)
	dp.mux.Send(dp.proto, peer, e.Bytes())
	e.Release()
}

// sendTipHint tells a lagging peer how far this node's definite chain
// reaches, so the peer switches to range sync instead of being drip-fed one
// handoff block per vote.
func (dp *dataPath) sendTipHint(to flcrypto.NodeID) {
	e := types.GetEncoder(16)
	e.Uint8(kindTipHint)
	e.Uint64(dp.chain.Definite())
	dp.mux.Send(dp.proto, to, e.Bytes())
	e.Release()
}

// fetchWindow bounds how far above the chain tip catch-up blocks are
// buffered before adoption.
func (dp *dataPath) fetchWindow() uint64 {
	return uint64(4 * dp.opts.catchUpBatch)
}

// storeFetched inserts verified catch-up blocks whose rounds fall inside
// the adoption window (tip, tip+fetchWindow], reporting how many were
// newly stored. Out-of-window rounds are dropped — they are either already
// adopted or too far ahead to buffer.
func (dp *dataPath) storeFetched(blks []types.Block) int {
	if len(blks) == 0 {
		return 0
	}
	tip := dp.chain.Tip()
	window := dp.fetchWindow()
	stored := 0
	lowest := uint64(0)
	dp.mu.Lock()
	// Sweep rounds the chain has since passed (inserted before an adoption
	// advanced the tip), so the map cannot accumulate stale entries.
	if uint64(len(dp.fetched)) > 2*window {
		for r := range dp.fetched {
			if r <= tip {
				delete(dp.fetched, r)
			}
		}
	}
	for i := range blks {
		round := blks[i].Header().Round
		if round <= tip || round > tip+window {
			continue
		}
		if _, dup := dp.fetched[round]; dup {
			continue
		}
		dp.fetched[round] = blks[i]
		stored++
		if lowest == 0 || round < lowest {
			lowest = round
		}
	}
	if stored > 0 {
		close(dp.update)
		dp.update = make(chan struct{})
	}
	dp.mu.Unlock()
	if stored > 0 && dp.onFetched != nil {
		dp.onFetched(lowest)
	}
	return stored
}

// dropFetchedThrough discards buffered catch-up blocks at rounds ≤ r —
// after a snapshot install they are covered by the new base and would only
// occupy the adoption window until the next sweep.
func (dp *dataPath) dropFetchedThrough(r uint64) {
	dp.mu.Lock()
	for round := range dp.fetched {
		if round <= r {
			delete(dp.fetched, round)
		}
	}
	dp.mu.Unlock()
}

// frontier returns the first round not covered by the chain or the
// contiguous run of fetched blocks above it — the next round a range
// request should ask for.
func (dp *dataPath) frontier() uint64 {
	next := dp.chain.Tip() + 1
	dp.mu.Lock()
	defer dp.mu.Unlock()
	for {
		if _, ok := dp.fetched[next]; !ok {
			return next
		}
		next++
	}
}

// fetchedLen reports the adoption backlog (range-sync flow control).
func (dp *dataPath) fetchedLen() int {
	dp.mu.Lock()
	defer dp.mu.Unlock()
	return len(dp.fetched)
}

// fetchedSpan summarizes the buffered catch-up rounds for diagnostics.
func (dp *dataPath) fetchedSpan() (lo, hi uint64, n int) {
	dp.mu.Lock()
	defer dp.mu.Unlock()
	for r := range dp.fetched {
		if lo == 0 || r < lo {
			lo = r
		}
		if r > hi {
			hi = r
		}
	}
	return lo, hi, len(dp.fetched)
}

// updateChan returns the channel closed at the next store/adoption update.
func (dp *dataPath) updateChan() <-chan struct{} {
	dp.mu.Lock()
	defer dp.mu.Unlock()
	return dp.update
}

// hasFetched reports whether a catch-up block for round is buffered.
func (dp *dataPath) hasFetched(round uint64) bool {
	dp.mu.Lock()
	defer dp.mu.Unlock()
	_, ok := dp.fetched[round]
	return ok
}

// waitBody blocks until the body referenced by hdr is available, pulling it
// from peers ("p has to retrieve the block from a correct node q that has
// it", §6.1.1). The catch-up buffer doubles as a source: when the round's
// definite block already arrived there, its body serves the delivery — the
// body store alone cannot, because peers drop bodies once they are absorbed
// into definite blocks, so a node delivering a long-decided round would
// otherwise pull forever.
//
// Returns false if aborted — or if the catch-up buffer holds a *different*
// block for hdr's round. That means the cluster decided the round against
// the delivered header (an equivocator's split proposal whose other variant
// won, or a proposer the majority rotated past): the variant's body will
// never be served — no correct peer retains a body that reached no definite
// block — so pulling for it wedges the round loop forever while the true
// chain piles up in the buffer (a liveness bug the simulation harness found
// under seed replay). Giving up routes the caller back to its loop top,
// where the buffered segment is adopted instead.
func (dp *dataPath) waitBody(hdr types.BlockHeader, abort <-chan struct{}) (types.Body, bool) {
	interval := 10 * time.Millisecond
	for {
		superseded := false
		dp.mu.Lock()
		body, ok := dp.bodies[hdr.BodyHash]
		if !ok {
			if blk, have := dp.fetched[hdr.Round]; have {
				if *blk.Header() == hdr {
					body, ok = blk.Body, true
				} else {
					superseded = true
				}
			}
		}
		ch := dp.update
		dp.mu.Unlock()
		if superseded {
			return types.Body{}, false
		}
		if hdr.TxCount == 0 {
			if types.EmptyBodyHash() == hdr.BodyHash {
				return types.Body{}, true
			}
		}
		if ok {
			return body, true
		}
		// Pull.
		e := types.GetEncoder(40)
		e.Uint8(kindReqBody)
		e.Hash(hdr.BodyHash)
		dp.mux.Broadcast(dp.proto, e.Bytes())
		e.Release()
		select {
		case <-ch:
		case <-time.After(interval):
			if interval < time.Second {
				interval *= 2
			}
		case <-abort:
			return types.Body{}, false
		}
	}
}

// sendBlockTo pushes the definite block at round to one peer unsolicited —
// the catch-up fast path for a node observed voting on an already-definite
// round.
func (dp *dataPath) sendBlockTo(to flcrypto.NodeID, round uint64) {
	if round == 0 || round > dp.chain.Definite() {
		return
	}
	blk, ok := dp.chain.BlockAt(round)
	if !ok {
		return
	}
	e := types.GetEncoder(64 + blk.Body.Size())
	e.Uint8(kindRespBlock)
	blk.Encode(e)
	dp.mux.Send(dp.proto, to, e.Bytes())
	e.Release()
}

// takeSegment pops the contiguous run of catch-up blocks starting at round
// `from` (at most max blocks), so the round loop adopts whole verified
// chain segments atomically instead of one block per iteration.
func (dp *dataPath) takeSegment(from uint64, max int) []types.Block {
	dp.mu.Lock()
	var out []types.Block
	for len(out) < max {
		blk, ok := dp.fetched[from+uint64(len(out))]
		if !ok {
			break
		}
		delete(dp.fetched, from+uint64(len(out)))
		out = append(out, blk)
	}
	if len(out) > 0 {
		// Adoption progress unblocks the range syncer's backlog wait.
		close(dp.update)
		dp.update = make(chan struct{})
	}
	dp.mu.Unlock()
	return out
}

// requestBlock broadcasts one catch-up request for round — the legacy
// single-gap chase; bulk lag goes through the range syncer instead.
func (dp *dataPath) requestBlock(round uint64) {
	dp.metrics.CatchUpBlockReqs.Add(1)
	e := types.GetEncoder(16)
	e.Uint8(kindReqBlock)
	e.Uint64(round)
	dp.mux.Broadcast(dp.proto, e.Bytes())
	e.Release()
}

// fetchBlock retrieves the definite block at round from peers, for recovery
// catch-up. Returns false if aborted.
func (dp *dataPath) fetchBlock(round uint64, abort <-chan struct{}) (types.Block, bool) {
	interval := 20 * time.Millisecond
	for {
		dp.mu.Lock()
		blk, ok := dp.fetched[round]
		ch := dp.update
		dp.mu.Unlock()
		if ok {
			return blk, true
		}
		dp.requestBlock(round)
		select {
		case <-ch:
		case <-time.After(interval):
			if interval < time.Second {
				interval *= 2
			}
		case <-abort:
			return types.Block{}, false
		}
	}
}
