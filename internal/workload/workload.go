// Package workload provides transaction sources for FireLedger: a
// client-facing pool with lease semantics (the TX pool of the paper's Fig 3)
// and synthetic generators reproducing the evaluation's load model — random
// transactions of σ bytes, with every block filled to its maximal size β
// ("we simulate an intensive load by filling every block to its maximal
// size", §7.2).
package workload

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sort"
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
//
// A write is identified by (Client, Seq) — the identity commit receipts use
// — so no operation hashes a payload, and every operation is O(1) per
// transaction. Memory is bounded by the writes in the pool plus, per client,
// the runs of consecutive committed sequence numbers (a session mints
// seq+1 per write, so a client is normally one run per session).
//
// The contract: a write already committed, queued or leased is not queued
// again; an expired lease re-queues its writes (at-least-once inclusion);
// Committed counts distinct writes. Identity without the payload has one
// cost: a Byzantine proposer can commit a forged (Client, Seq). A forgery
// whose payload differs from the pooled write's does not retire that write
// (MarkCommitted compares the bytes on a hit), but one that lands before the
// honest write was submitted here makes Add drop it, exactly as it already
// resolves that write's receipt.
//
// Release (core.TxSource) is the early way back. The proposer hands back
// the batch of a block that can never be decided — its slot fell below the
// definite boundary off the chain — and each write that batch's grant still
// holds returns to the front of the queue, so the grant's expiry later
// re-queues only what it still holds. A write whose lease once expired is
// left to the timeout from then on: the batch a later Release names may no
// longer be the grant that holds it. The lease timeout stays as the backstop
// for a proposer that crashed.
type Pool struct {
	leaseTimeout time.Duration

	mu      sync.Mutex
	queue   []*pooled          // FIFO of writes waiting for a proposer
	pending map[txKey]*pooled  // every write in the pool, queued or leased
	leases  []*lease           // grants in time order: expiry pops the front
	clients map[uint64]*client // per client id: committed runs, pooled count
	nCommit atomic.Uint64
}

type txKey struct{ client, seq uint64 }

// pooled is one write in the pool. lease is nil while it waits in the queue;
// retired marks a copy still referenced by the queue or a lease after its
// write committed; expired marks a write a lease expiry re-queued, which
// Release no longer touches.
type pooled struct {
	tx      types.Transaction
	lease   *lease
	retired bool
	expired bool
}

// lease is one NextBatch grant. live counts its writes not yet committed, so
// a fully committed grant leaves the FIFO without being walked.
type lease struct {
	since time.Time
	txs   []*pooled
	live  int
}

// client is what the pool remembers about one client id.
type client struct {
	committed seqRuns
	pooled    int // this client's entries in Pool.pending
}

// NewPool creates a pool. leaseTimeout guards against transactions leased
// into blocks that never finalize (default 5s).
func NewPool(leaseTimeout time.Duration) *Pool {
	if leaseTimeout == 0 {
		leaseTimeout = 5 * time.Second
	}
	return &Pool{
		leaseTimeout: leaseTimeout,
		pending:      make(map[txKey]*pooled),
		clients:      make(map[uint64]*client),
	}
}

// clientLocked returns (creating) the record of client id.
func (p *Pool) clientLocked(id uint64) *client {
	c := p.clients[id]
	if c == nil {
		c = &client{}
		p.clients[id] = c
	}
	return c
}

// Add submits a transaction. A write already committed or already in the
// pool is dropped.
func (p *Pool) Add(tx types.Transaction) {
	key := txKey{tx.Client, tx.Seq}
	p.mu.Lock()
	defer p.mu.Unlock()
	c := p.clientLocked(tx.Client)
	if c.committed.contains(tx.Seq) || p.pending[key] != nil {
		return
	}
	e := &pooled{tx: tx}
	p.pending[key] = e
	c.pooled++
	p.queue = append(p.queue, e)
}

// NextBatch leases up to max transactions (core.TxSource).
func (p *Pool) NextBatch(max int) []types.Transaction {
	now := time.Now()
	p.mu.Lock()
	defer p.mu.Unlock()
	// Reclaim expired leases first. Grants sit in time order, so only the
	// front can have expired; a grant whose writes all committed just leaves.
	for len(p.leases) > 0 {
		l := p.leases[0]
		if l.live > 0 && now.Sub(l.since) <= p.leaseTimeout {
			break
		}
		p.leases[0] = nil
		p.leases = p.leases[1:]
		for _, e := range l.txs {
			if e.lease == l && !e.retired {
				e.lease = nil
				e.expired = true
				p.queue = append(p.queue, e)
			}
		}
	}
	batch := make([]types.Transaction, 0, min(max, len(p.queue)))
	grant := &lease{since: now}
	for len(p.queue) > 0 && len(batch) < max {
		e := p.queue[0]
		p.queue[0] = nil
		p.queue = p.queue[1:]
		if e.retired {
			continue // committed while it waited (an expired lease's late commit)
		}
		e.lease = grant
		grant.txs = append(grant.txs, e)
		batch = append(batch, e.tx)
	}
	if grant.live = len(grant.txs); grant.live > 0 {
		p.leases = append(p.leases, grant)
	}
	return batch
}

// Release re-queues, at the front and in order, the writes of batch that
// are still leased (core.TxSource); a write already committed, queued,
// unknown or once expired is left as it is. batch must be one NextBatch
// grant, released at most once.
func (p *Pool) Release(batch []types.Transaction) {
	p.mu.Lock()
	defer p.mu.Unlock()
	var back []*pooled
	for i := range batch {
		e := p.pending[txKey{batch[i].Client, batch[i].Seq}]
		if e == nil || e.lease == nil || e.expired {
			continue
		}
		e.lease.live--
		e.lease = nil
		back = append(back, e)
	}
	if len(back) > 0 {
		p.queue = append(back, p.queue...)
	}
}

// MarkCommitted retires transactions that reached a definite block
// (core.TxSource). Every node sees every block, so the common case — a
// client this pool holds nothing of — costs one map lookup per change of
// client within the block and one run extension per transaction.
func (p *Pool) MarkCommitted(txs []types.Transaction) {
	p.mu.Lock()
	defer p.mu.Unlock()
	var c *client
	var cid uint64
	fresh := uint64(0)
	for i := range txs {
		tx := &txs[i]
		if c == nil || cid != tx.Client {
			c, cid = p.clientLocked(tx.Client), tx.Client
		}
		if c.pooled > 0 {
			key := txKey{tx.Client, tx.Seq}
			if e := p.pending[key]; e != nil {
				if !bytes.Equal(e.tx.Payload, tx.Payload) {
					// A forged identity: the honest write stays in the pool
					// and stays committable.
					continue
				}
				delete(p.pending, key)
				c.pooled--
				e.retired = true
				if e.lease != nil {
					e.lease.live--
				}
			}
		}
		if c.committed.add(tx.Seq) {
			fresh++
		}
	}
	p.nCommit.Add(fresh)
}

// Pending reports the number of transactions waiting (available + leased).
func (p *Pool) Pending() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.pending)
}

// Committed reports how many distinct transactions have been finalized.
func (p *Pool) Committed() uint64 { return p.nCommit.Load() }

// seqRun is the closed interval [lo, hi] of committed sequence numbers.
type seqRun struct{ lo, hi uint64 }

// seqRuns is one client's committed sequence numbers as disjoint,
// non-adjacent runs in ascending order.
type seqRuns []seqRun

// maxRuns bounds one client's runs. A run boundary is a sequence number the
// client skipped or whose write never committed; past the bound the two
// oldest runs merge, which declares the numbers between them committed too.
// A session's numbers only grow, so those can no longer arrive.
const maxRuns = 4096

// find returns the index of the first run that contains seq or ends just
// before it, or len(r).
func (r seqRuns) find(seq uint64) int {
	return sort.Search(len(r), func(i int) bool { return r[i].hi >= seq || r[i].hi+1 == seq })
}

func (r seqRuns) contains(seq uint64) bool {
	i := r.find(seq)
	return i < len(r) && r[i].lo <= seq && seq <= r[i].hi
}

// add records seq and reports whether it was new.
func (r *seqRuns) add(seq uint64) bool {
	s := *r
	// In-order commits extend the newest run.
	if n := len(s); n > 0 && s[n-1].hi+1 == seq && seq != 0 {
		s[n-1].hi = seq
		return true
	}
	i := s.find(seq)
	switch {
	case i == len(s):
		s = append(s, seqRun{seq, seq})
	case s[i].lo <= seq && seq <= s[i].hi:
		return false
	case s[i].hi+1 == seq && seq != 0: // seq 0 does not follow the highest number
		s[i].hi = seq
		if i+1 < len(s) && s[i+1].lo == seq+1 {
			s[i].hi = s[i+1].hi
			s = slices.Delete(s, i+1, i+2)
		}
	case s[i].lo == seq+1:
		s[i].lo = seq
	default:
		s = slices.Insert(s, i, seqRun{seq, seq})
	}
	if len(s) > maxRuns {
		s[1].lo = s[0].lo
		s = s[1:]
	}
	*r = s
	return true
}

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

// Release does nothing: a saturating source leases nothing.
func (s *SaturatingSource) Release([]types.Transaction) {}

// MarkCommitted counts finalized transactions.
func (s *SaturatingSource) MarkCommitted(txs []types.Transaction) {
	s.committed.Add(uint64(len(txs)))
}

// Committed reports the number of finalized transactions.
func (s *SaturatingSource) Committed() uint64 { return s.committed.Load() }
