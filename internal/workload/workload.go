// Package workload provides transaction sources for FireLedger: a
// client-facing pool with lease semantics (the TX pool of the paper's Fig 3)
// and synthetic generators reproducing the evaluation's load model — random
// transactions of σ bytes, with every block filled to its maximal size β
// ("we simulate an intensive load by filling every block to its maximal
// size", §7.2).
package workload

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/flcrypto"
	"repro/internal/statemachine"
	"repro/internal/types"
)

// Pool is a transaction pool with lease semantics: NextBatch leases
// transactions to a proposer; if the block carrying them never becomes
// definite, the lease expires and the transactions become available again,
// so client submissions are not lost to rescinded tentative blocks.
type Pool struct {
	leaseTimeout time.Duration

	mu        sync.Mutex
	queue     []types.Transaction
	leased    map[flcrypto.Hash]leasedTx
	committed map[flcrypto.Hash]bool
	nCommit   atomic.Uint64
}

type leasedTx struct {
	tx    types.Transaction
	since time.Time
}

// NewPool creates a pool. leaseTimeout guards against transactions leased
// into blocks that never finalize (default 5s).
func NewPool(leaseTimeout time.Duration) *Pool {
	if leaseTimeout == 0 {
		leaseTimeout = 5 * time.Second
	}
	return &Pool{
		leaseTimeout: leaseTimeout,
		leased:       make(map[flcrypto.Hash]leasedTx),
		committed:    make(map[flcrypto.Hash]bool),
	}
}

// Add submits a transaction. Duplicates of committed transactions are
// dropped.
func (p *Pool) Add(tx types.Transaction) {
	id := tx.ID()
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.committed[id] {
		return
	}
	if _, inFlight := p.leased[id]; inFlight {
		return
	}
	p.queue = append(p.queue, tx)
}

// NextBatch leases up to max transactions (core.TxSource).
func (p *Pool) NextBatch(max int) []types.Transaction {
	now := time.Now()
	p.mu.Lock()
	defer p.mu.Unlock()
	// Reclaim expired leases first.
	for id, l := range p.leased {
		if now.Sub(l.since) > p.leaseTimeout {
			delete(p.leased, id)
			p.queue = append(p.queue, l.tx)
		}
	}
	n := len(p.queue)
	if n > max {
		n = max
	}
	batch := make([]types.Transaction, n)
	copy(batch, p.queue[:n])
	p.queue = p.queue[n:]
	for _, tx := range batch {
		p.leased[tx.ID()] = leasedTx{tx: tx, since: now}
	}
	return batch
}

// MarkCommitted retires transactions that reached a definite block
// (core.TxSource).
func (p *Pool) MarkCommitted(txs []types.Transaction) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, tx := range txs {
		id := tx.ID()
		delete(p.leased, id)
		if !p.committed[id] {
			p.committed[id] = true
			p.nCommit.Add(1)
		}
	}
}

// Pending reports the number of transactions waiting (available + leased).
func (p *Pool) Pending() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.queue) + len(p.leased)
}

// Committed reports how many distinct transactions have been finalized.
func (p *Pool) Committed() uint64 { return p.nCommit.Load() }

// Generator produces random transactions of a fixed payload size — the
// paper's σ-byte random transactions (Table 2).
type Generator struct {
	mu           sync.Mutex
	rng          *rand.Rand
	size         int
	client       uint64
	seq          uint64
	compressible bool
	kvKeys       int
}

// NewGenerator creates a generator for σ = size payload bytes. client tags
// the transactions; seed makes the stream reproducible.
func NewGenerator(size int, client uint64, seed int64) *Generator {
	return &Generator{rng: rand.New(rand.NewSource(seed)), size: size, client: client}
}

// SetCompressible switches the payload content from random bytes to
// structured text (distinct per transaction but highly redundant), modeling
// real ledger entries for compression experiments.
func (g *Generator) SetCompressible(on bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.compressible = on
}

// SetKV switches payloads from random bytes to state-machine Set commands
// cycling over a keys-sized keyspace, so the saturating load exercises a
// configured state backend (the state benchmarks). Payloads stay ≈ σ bytes:
// the value is padded to keep the write path comparable to the random load.
func (g *Generator) SetKV(keys int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.kvKeys = keys
}

// kvPayloadOverhead approximates the Set-command framing (op byte + two
// length-prefixed fields + key text) subtracted from σ to size the value.
const kvPayloadOverhead = 32

// ledgerPhrase is the repeating motif of compressible payloads.
var ledgerPhrase = []byte("transfer 100 units from account A to account B memo invoice; ")

// Next returns a fresh transaction.
func (g *Generator) Next() types.Transaction {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.seq++
	if g.kvKeys > 0 {
		vlen := g.size - kvPayloadOverhead
		if vlen < 8 {
			vlen = 8
		}
		value := make([]byte, vlen)
		g.rng.Read(value)
		key := fmt.Sprintf("bench/%08d", g.seq%uint64(g.kvKeys))
		return types.Transaction{Client: g.client, Seq: g.seq, Payload: statemachine.EncodeSet(key, value)}
	}
	payload := make([]byte, g.size)
	if g.compressible {
		for off := 0; off < len(payload); off += len(ledgerPhrase) {
			copy(payload[off:], ledgerPhrase)
		}
		// A small unique prefix keeps transactions distinct.
		if len(payload) >= 8 {
			for i := 0; i < 8; i++ {
				payload[i] = byte(g.seq >> (8 * i))
			}
		}
	} else {
		g.rng.Read(payload)
	}
	return types.Transaction{Client: g.client, Seq: g.seq, Payload: payload}
}

// SaturatingSource is the §7.2 load model as a core.TxSource: every
// NextBatch returns a full batch of fresh random transactions, so proposers
// always fill their blocks to β — the "intensive load" used throughout the
// paper's throughput measurements. MarkCommitted only counts.
type SaturatingSource struct {
	gen       *Generator
	committed atomic.Uint64
}

// NewSaturatingSource creates a saturating source of σ = size byte
// transactions.
func NewSaturatingSource(size int, client uint64, seed int64) *SaturatingSource {
	return &SaturatingSource{gen: NewGenerator(size, client, seed)}
}

// Saturating is the §7.2 load model as a flo.Config.Source for node: each
// worker draws size-byte transactions from its own SaturatingSource, seeded
// per (node, worker) so no two pipelines of a cluster emit the same stream.
// tune, when given, adjusts each source before use (SetCompressible, SetKV).
func Saturating(node flcrypto.NodeID, size int, tune ...func(*SaturatingSource)) func(worker uint32) core.TxSource {
	return func(w uint32) core.TxSource {
		s := NewSaturatingSource(size, uint64(node)*1000+uint64(w), int64(node)*7919+int64(w))
		for _, f := range tune {
			f(s)
		}
		return s
	}
}

// SetCompressible switches payload content to compressible text (see
// Generator.SetCompressible).
func (s *SaturatingSource) SetCompressible(on bool) { s.gen.SetCompressible(on) }

// SetKV switches payloads to state-machine Set commands (see Generator.SetKV).
func (s *SaturatingSource) SetKV(keys int) { s.gen.SetKV(keys) }

// NextBatch returns max fresh transactions.
func (s *SaturatingSource) NextBatch(max int) []types.Transaction {
	out := make([]types.Transaction, max)
	for i := range out {
		out[i] = s.gen.Next()
	}
	return out
}

// MarkCommitted counts finalized transactions.
func (s *SaturatingSource) MarkCommitted(txs []types.Transaction) {
	s.committed.Add(uint64(len(txs)))
}

// Committed reports the number of finalized transactions.
func (s *SaturatingSource) Committed() uint64 { return s.committed.Load() }
