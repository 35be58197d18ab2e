package core

import (
	"fmt"

	"repro/internal/flcrypto"
	"repro/internal/types"
)

// propKey identifies one proposal slot of this node.
type propKey struct {
	round uint64
	prev  flcrypto.Hash
}

// proposal is one memoized slot: the signed block and the batch it leased
// from the pool. A block preloaded from the proposal log has no batch: its
// lease belonged to an earlier process.
type proposal struct {
	blk   types.Block
	batch []types.Transaction
}

// buildBlock assembles and signs a block for round ri extending prevHash.
// Pending conviction transactions (at most f — one per possible culprit)
// ride ahead of the client batch, putting observed equivocation proofs on
// the chain at the proposer's next turn.
//
// Each (round, parent) slot is signed at most once: redoing a slot (after
// an aborted attempt or a recovery that reinstalled the same parent)
// re-proposes the memoized block verbatim. Signing two different blocks for
// one slot is exactly the offense the evidence layer convicts, so a correct
// node must never do it.
func (in *Instance) buildBlock(ri uint64, prevHash flcrypto.Hash) (types.Block, error) {
	key := propKey{round: ri, prev: prevHash}
	in.propMu.Lock()
	if p, ok := in.propCache[key]; ok {
		in.propMu.Unlock()
		return p.blk, nil
	}
	in.propMu.Unlock()

	var txs []types.Transaction
	if in.cfg.Evidence != nil && !in.cfg.Equivocate {
		txs = in.cfg.Evidence.PendingTxs(in.f)
	}
	var batch []types.Transaction
	if in.cfg.Pool != nil {
		batch = in.cfg.Pool.NextBatch(in.cfg.BatchSize)
		txs = append(txs, batch...)
	}
	blk, err := types.NewBlock(in.cfg.Instance, ri, in.id, prevHash, txs, in.cfg.Priv)
	if err != nil {
		in.release(batch)
		return types.Block{}, fmt.Errorf("core: build block: %w", err)
	}
	in.metrics.SignOps.Add(1)

	in.propMu.Lock()
	if prev, ok := in.propCache[key]; ok {
		// A concurrent builder (piggyback vs explicit push) won the slot:
		// discard ours, hand its batch back and use the already-signed
		// block.
		in.propMu.Unlock()
		in.release(batch)
		return prev.blk, nil
	}
	if in.cfg.PersistProposal != nil {
		// Memoize durably before the block becomes publishable — the
		// cache insert below is what makes the signature reachable by
		// concurrent builders, so the persist must precede it (under
		// propMu, which also guarantees only the slot winner is ever
		// persisted). A persist failure refuses the proposal outright:
		// signing without the durable memo would re-open the
		// restart-amnesia equivocation the proposal log exists to close.
		if err := in.cfg.PersistProposal(blk); err != nil {
			in.propMu.Unlock()
			in.release(batch)
			return types.Block{}, fmt.Errorf("core: persist proposal: %w", err)
		}
	}
	if in.propCache == nil {
		in.propCache = make(map[propKey]proposal)
	}
	in.propCache[key] = proposal{blk: blk, batch: batch}
	in.propMu.Unlock()
	return blk, nil
}

// release hands a batch that no block will ever carry back to the pool.
func (in *Instance) release(batch []types.Transaction) {
	if len(batch) > 0 {
		in.cfg.Pool.Release(batch)
	}
}

// proposed reports whether this node has signed a block for slot key.
func (in *Instance) proposed(key propKey) bool {
	in.propMu.Lock()
	defer in.propMu.Unlock()
	_, ok := in.propCache[key]
	return ok
}

// pruneProposals drops memoized proposals at definite rounds: recovery
// cannot reach below the definite boundary, so they can never be proposed
// again. A pruned block that is not the chain's block at its round can
// never be decided either — its attempt decided nil, or its parent did —
// so its batch goes back to the pool instead of waiting out the lease.
// Where the chain no longer holds the round (a snapshot covered it) the
// lease is left to expire.
func (in *Instance) pruneProposals(definite uint64) {
	var dead [][]types.Transaction
	in.propMu.Lock()
	for key, p := range in.propCache {
		if key.round > definite {
			continue
		}
		delete(in.propCache, key)
		if h, ok := in.chain.HashAt(key.round); ok && h != p.blk.Hash() && len(p.batch) > 0 {
			dead = append(dead, p.batch)
		}
	}
	in.propMu.Unlock()
	for _, batch := range dead {
		in.cfg.Pool.Release(batch)
	}
	if in.cfg.PruneProposals != nil {
		in.cfg.PruneProposals(definite)
	}
}
