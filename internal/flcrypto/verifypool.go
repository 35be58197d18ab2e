package flcrypto

import (
	"container/list"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// VerifyPool parallelizes and deduplicates signature verification.
// The paper's evaluation (§7, Fig 5) shows that once the network is
// saturated, FireLedger's throughput is bounded by how fast nodes can check
// envelopes, not by how fast they can move bytes — and the protocol
// re-presents the same signed bytes many times (WRB echoes a proposer's
// signed header to n−1 peers, OBBC evidence responses repeat it up to n−f
// times, recovery versions repeat whole signed chains). The pool is two
// things around PublicKey.Verify (crypto/ed25519 or crypto/ecdsa):
//
//   - a fixed set of worker goroutines (GOMAXPROCS by default) runs
//     verifications submitted through VerifyAsync off the protocol event
//     loops, so one core never serializes the whole cluster's crypto;
//   - a sharded LRU cache keyed on (public key, SHA-256(msg), signature)
//     collapses repeated checks of the same envelope into one crypto op.
//
// The cache key covers the signature bytes themselves, so a forged
// signature over a previously-verified message can never hit a positive
// entry: it hashes to a different key, misses, and is verified (and
// rejected) for real. Negative results are cached too — replaying a forged
// envelope costs an attacker one lookup, not one crypto op per copy. Every
// cached verdict is the one PublicKey.Verify returned for that exact key.
//
// A nil *VerifyPool is valid everywhere and means synchronous, uncached
// verification (the SyncVerify escape hatch deterministic tests rely on).
type VerifyPool struct {
	tasks chan verifyTask
	stop  chan struct{}
	once  sync.Once
	wg    sync.WaitGroup

	// submitMu makes shutdown deterministic: VerifyAsync sends while
	// holding it for reading; Close flips closed under the write lock
	// before it stops the workers and drains the queue. Every submission
	// therefore either lands in the queue before the drain (its callback
	// runs inside Close) or observes closed and completes synchronously on
	// the caller — never a third, timing-dependent fate.
	submitMu sync.RWMutex
	closed   bool

	workers int

	shards [cacheShardCount]cacheShard

	hits   atomic.Uint64
	misses atomic.Uint64
}

type verifyTask struct {
	pub  PublicKey
	msg  []byte
	sig  Signature
	done func(bool)
}

const (
	cacheShardCount = 16
	// DefaultCacheSize bounds the total number of cached verification
	// results. A few thousand entries cover the in-flight rounds of all
	// workers of a node; older entries are for decided rounds and can be
	// re-verified in the unlikely case they resurface.
	DefaultCacheSize = 8192
	// minQueueDepth is the least number of submissions VerifyAsync can
	// queue before it blocks its caller. The callers are the protocol event
	// loops, so the depth is their backpressure: deep enough to absorb a
	// round's burst of headers, votes and evidence across ω workers without
	// stalling a loop, small enough that a loop outrunning the workers
	// slows down instead of queueing without bound.
	minQueueDepth = 128
)

// NewVerifyPool creates a pool with `workers` goroutines and a verify cache
// of `cacheSize` entries. workers <= 0 selects GOMAXPROCS; cacheSize <= 0
// selects DefaultCacheSize. Call Close when the node shuts down.
func NewVerifyPool(workers, cacheSize int) *VerifyPool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if cacheSize <= 0 {
		cacheSize = DefaultCacheSize
	}
	perShard := max(cacheSize/cacheShardCount, 8)
	p := &VerifyPool{
		tasks:   make(chan verifyTask, max(4*workers, minQueueDepth)),
		stop:    make(chan struct{}),
		workers: workers,
	}
	for i := range p.shards {
		p.shards[i].init(perShard)
	}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p
}

// Workers reports the pool's goroutine count (GOMAXPROCS when the
// constructor was passed workers <= 0).
func (p *VerifyPool) Workers() int {
	if p == nil {
		return 0
	}
	return p.workers
}

func (p *VerifyPool) worker() {
	defer p.wg.Done()
	for {
		select {
		case t := <-p.tasks:
			t.done(p.verifyCached(t.pub, t.msg, t.sig))
		case <-p.stop:
			return
		}
	}
}

// Close stops the workers and completes any still-queued tasks inline. Its
// contract is deterministic: every VerifyAsync that returned before Close
// was called has its callback invoked by the time Close returns, and every
// VerifyAsync after Close runs synchronously on its caller (the documented
// fallback — same semantics as a nil pool, plus the cache).
func (p *VerifyPool) Close() {
	if p == nil {
		return
	}
	p.once.Do(func() {
		p.submitMu.Lock()
		p.closed = true
		p.submitMu.Unlock()
		close(p.stop)
	})
	p.wg.Wait()
	for {
		select {
		case t := <-p.tasks:
			t.done(p.verifyCached(t.pub, t.msg, t.sig))
		default:
			return
		}
	}
}

// Verify checks sig over msg against pub synchronously, consulting the
// cache. On a miss the crypto runs on the calling goroutine — callers that
// need a bool now gain the dedup but not the parallelism (that is what
// VerifyAsync is for). Nil pools verify directly.
func (p *VerifyPool) Verify(pub PublicKey, msg []byte, sig Signature) bool {
	if pub == nil {
		return false
	}
	if p == nil {
		return pub.Verify(msg, sig)
	}
	return p.verifyCached(pub, msg, sig)
}

// VerifyNode is Verify against id's registered key, the pooled counterpart
// of Registry.Verify.
func (p *VerifyPool) VerifyNode(reg *Registry, id NodeID, msg []byte, sig Signature) bool {
	return p.Verify(reg.PublicKey(id), msg, sig)
}

// VerifyAsync submits a verification to the worker pool; done receives the
// result on a pool goroutine. done must not assume any ordering relative to
// other submissions. With a nil pool, an unknown key, or a pool that has
// been Closed, the verification runs — and done is invoked — synchronously
// on the caller.
func (p *VerifyPool) VerifyAsync(pub PublicKey, msg []byte, sig Signature, done func(bool)) {
	if pub == nil {
		done(false)
		return
	}
	if p == nil {
		done(pub.Verify(msg, sig))
		return
	}
	p.submitMu.RLock()
	if p.closed {
		p.submitMu.RUnlock()
		done(p.verifyCached(pub, msg, sig))
		return
	}
	p.tasks <- verifyTask{pub: pub, msg: msg, sig: sig, done: done}
	p.submitMu.RUnlock()
}

// VerifyAsyncNode is VerifyAsync against id's registered key.
func (p *VerifyPool) VerifyAsyncNode(reg *Registry, id NodeID, msg []byte, sig Signature, done func(bool)) {
	p.VerifyAsync(reg.PublicKey(id), msg, sig, done)
}

// Signer wraps priv so that every signature it makes enters the pool's cache
// as valid: the node's own header, PBFT messages and fallback proposals
// come back to it over loopback, and checking them becomes a lookup
// instead of a crypto op.
// The entry is keyed on priv's own public key, so it can only answer for
// exactly the (key, message, signature) triple priv produced. A registry
// entry for the node that is not priv's key, a flipped signature bit or
// another message hashes to a different key, misses, and is verified for
// real. A nil pool (or key) returns priv unchanged.
func (p *VerifyPool) Signer(priv PrivateKey) PrivateKey {
	if p == nil || priv == nil {
		return priv
	}
	return &seedingSigner{PrivateKey: priv, pub: priv.Public(), pool: p}
}

type seedingSigner struct {
	PrivateKey
	pub  PublicKey
	pool *VerifyPool
}

func (s *seedingSigner) Sign(msg []byte) (Signature, error) {
	sig, err := s.PrivateKey.Sign(msg)
	if err == nil {
		key := cacheKey(s.pub, msg, sig)
		s.pool.shards[key[0]%cacheShardCount].put(key, true)
	}
	return sig, err
}

// Stats reports cache hits and misses since creation.
func (p *VerifyPool) Stats() (hits, misses uint64) {
	if p == nil {
		return 0, 0
	}
	return p.hits.Load(), p.misses.Load()
}

// PoolBatchStats exists only because benchmark/node still reads these four
// fields into the per-layer metrics flcrypto.verify_batch_mean,
// verify_singles and verify_hold_ms_per_s. The pool does not batch, so
// Batches, BatchedSigs and Waited are always zero. The type and
// BatchStats go with the next change to the benchmark that drops those
// metrics.
type PoolBatchStats struct {
	Batches     uint64
	BatchedSigs uint64
	// Singles counts the verifications the pool ran: its cache misses.
	Singles uint64
	Waited  time.Duration
}

// BatchStats reports the pool's misses as Singles; see PoolBatchStats.
func (p *VerifyPool) BatchStats() PoolBatchStats {
	_, misses := p.Stats()
	return PoolBatchStats{Singles: misses}
}

func (p *VerifyPool) verifyCached(pub PublicKey, msg []byte, sig Signature) bool {
	key := cacheKey(pub, msg, sig)
	shard := &p.shards[key[0]%cacheShardCount]
	if ok, cached := shard.get(key); cached {
		p.hits.Add(1)
		return ok
	}
	p.misses.Add(1)
	ok := pub.Verify(msg, sig)
	shard.put(key, ok)
	return ok
}

// cacheKey folds (pubkey, SHA-256(msg), sig) into one digest. Hashing the
// message first keeps the key computation linear in the envelope size with
// a small constant, and including the signature bytes prevents any forged
// variant from aliasing a cached genuine result.
func cacheKey(pub PublicKey, msg []byte, sig Signature) Hash {
	msgDigest := Sum256(msg)
	h := NewHasher()
	if ep, ok := pub.(*ed25519Pub); ok {
		h.Write(ep.k) // Bytes() copies the key; this runs on every lookup
	} else {
		h.Write(pub.Bytes())
	}
	h.Write(msgDigest[:])
	h.Write(sig)
	return h.Sum()
}

// cacheShard is one lock stripe of the verify cache: a bounded LRU of
// verification outcomes.
type cacheShard struct {
	mu    sync.Mutex
	max   int
	items map[Hash]*list.Element
	order *list.List // front = most recently used
}

type cacheEntry struct {
	key Hash
	ok  bool
}

func (s *cacheShard) init(max int) {
	s.max = max
	s.items = make(map[Hash]*list.Element, max)
	s.order = list.New()
}

func (s *cacheShard) get(k Hash) (ok, cached bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	el, found := s.items[k]
	if !found {
		return false, false
	}
	s.order.MoveToFront(el)
	return el.Value.(*cacheEntry).ok, true
}

func (s *cacheShard) put(k Hash, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, dup := s.items[k]; dup {
		s.order.MoveToFront(el)
		el.Value.(*cacheEntry).ok = ok
		return
	}
	s.items[k] = s.order.PushFront(&cacheEntry{key: k, ok: ok})
	if s.order.Len() > s.max {
		last := s.order.Back()
		s.order.Remove(last)
		delete(s.items, last.Value.(*cacheEntry).key)
	}
}
