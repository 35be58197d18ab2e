package flcrypto

import (
	"container/list"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/adaptive"
)

// VerifyPool parallelizes, batches, and deduplicates signature verification.
// The paper's evaluation (§7, Fig 5) shows that once the network is
// saturated, FireLedger's throughput is bounded by how fast nodes can check
// envelopes, not by how fast they can move bytes — and the protocol
// re-presents the same signed bytes many times (WRB echoes a proposer's
// signed header to n−1 peers, OBBC evidence responses repeat it up to n−f
// times, recovery versions repeat whole signed chains). The pool addresses
// all three cost dimensions:
//
//   - a fixed set of worker goroutines (GOMAXPROCS by default) runs
//     verifications submitted through VerifyAsync off the protocol event
//     loops, so one core never serializes the whole cluster's crypto;
//   - each worker drains up to BatchMax queued requests at once and checks
//     the Ed25519 ones with a single multi-scalar batch combination (~2x
//     single-verify throughput; see batch.go), holding a partial batch open
//     only as long as the observed arrival rate says more work is coming
//     (adaptive.FillWait — a lone request in a quiet cluster waits at most
//     one MinBatchWait);
//   - a sharded LRU cache keyed on (public key, SHA-256(msg), signature)
//     collapses repeated checks of the same envelope into one crypto op.
//
// The cache key covers the signature bytes themselves, so a forged
// signature over a previously-verified message can never hit a positive
// entry: it hashes to a different key, misses, and is verified (and
// rejected) for real. Negative results are cached too — replaying a forged
// envelope costs an attacker one lookup, not one crypto op per copy. A
// batch that fails bisects to isolate the forgeries (one bad envelope
// cannot reject honest peers' signatures sharing its batch), and inside a
// failure cone only individually-confirmed verdicts enter the cache — a
// forged signature never poisons a cached-valid entry.
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

	workers  int
	batchMax int
	minWait  time.Duration
	maxWait  time.Duration
	arrivals adaptive.Rate

	shards [cacheShardCount]cacheShard

	hits   atomic.Uint64
	misses atomic.Uint64

	batches     atomic.Uint64 // multi-scalar batch checks run at top level
	batchedSigs atomic.Uint64 // signatures resolved via those batches
	bisections  atomic.Uint64 // failed combinations that split
	singles     atomic.Uint64 // async misses resolved by single verification
	waitedNs    atomic.Uint64 // total time spent holding partial batches open
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
	// DefaultBatchMax caps the signatures per multi-scalar combination.
	// Past ~64 the per-signature saving flattens while a bisection pass
	// over a poisoned batch gets pricier, so this is the sweet spot, not a
	// hardware limit.
	DefaultBatchMax = 64
	// DefaultMinBatchWait is the grace period a worker holds a partial
	// batch open when the arrival-rate estimator sees no load worth
	// waiting for — the hard upper bound on batching-induced latency for a
	// lone request in a quiet cluster.
	DefaultMinBatchWait = 100 * time.Microsecond
	// DefaultMaxBatchWait caps the adaptive fill wait under load.
	DefaultMaxBatchWait = 2 * time.Millisecond
)

// PoolOptions configures NewVerifyPoolOpts. The zero value of every field
// selects its default; batching is on unless BatchMax is 1.
type PoolOptions struct {
	// Workers is the goroutine count; <= 0 selects GOMAXPROCS.
	Workers int
	// CacheSize bounds the verify cache; <= 0 selects DefaultCacheSize.
	CacheSize int
	// BatchMax caps signatures per batch combination; <= 0 selects
	// DefaultBatchMax, 1 turns the batch path off: every verification is a
	// single crypto op.
	BatchMax int
	// MinBatchWait / MaxBatchWait bound the adaptive batch-fill wait
	// (defaults DefaultMinBatchWait / DefaultMaxBatchWait). A negative
	// MinBatchWait selects zero: no grace period at all.
	MinBatchWait time.Duration
	MaxBatchWait time.Duration
}

// NewVerifyPool creates a pool with `workers` goroutines and a verify cache
// of `cacheSize` entries, with batch verification on at the default knobs.
// workers <= 0 selects GOMAXPROCS; cacheSize <= 0 selects DefaultCacheSize.
// Call Close when the node shuts down.
func NewVerifyPool(workers, cacheSize int) *VerifyPool {
	return NewVerifyPoolOpts(PoolOptions{Workers: workers, CacheSize: cacheSize})
}

// NewVerifyPoolOpts creates a pool from explicit options.
func NewVerifyPoolOpts(opts PoolOptions) *VerifyPool {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	cacheSize := opts.CacheSize
	if cacheSize <= 0 {
		cacheSize = DefaultCacheSize
	}
	perShard := cacheSize / cacheShardCount
	if perShard < 8 {
		perShard = 8
	}
	batchMax := opts.BatchMax
	if batchMax <= 0 {
		batchMax = DefaultBatchMax
	}
	minWait := opts.MinBatchWait
	switch {
	case minWait < 0:
		minWait = 0
	case minWait == 0:
		minWait = DefaultMinBatchWait
	}
	maxWait := opts.MaxBatchWait
	if maxWait <= 0 {
		maxWait = DefaultMaxBatchWait
	}
	if maxWait < minWait {
		maxWait = minWait
	}
	queue := 4 * workers
	if queue < 2*batchMax {
		queue = 2 * batchMax
	}
	p := &VerifyPool{
		tasks:    make(chan verifyTask, queue),
		stop:     make(chan struct{}),
		workers:  workers,
		batchMax: batchMax,
		minWait:  minWait,
		maxWait:  maxWait,
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

// BatchEnabled reports whether the multi-scalar batch path is active.
func (p *VerifyPool) BatchEnabled() bool { return p != nil && p.batchMax > 1 }

// BatchMax reports the configured batch-size cap (1 when batching is off).
func (p *VerifyPool) BatchMax() int {
	if p == nil {
		return 0
	}
	return p.batchMax
}

func (p *VerifyPool) worker() {
	defer p.wg.Done()
	scratch := make([]verifyTask, 0, p.batchMax)
	for {
		select {
		case t := <-p.tasks:
			p.runTasks(p.fill(scratch[:0], t))
		case <-p.stop:
			return
		}
	}
}

// fill assembles one batch: the triggering task, whatever is already
// queued, and — if the arrival rate justifies it — tasks landing within the
// adaptive fill-wait window. The wait is a deadline, not a sleep; the batch
// departs the moment it reaches batchMax.
func (p *VerifyPool) fill(batch []verifyTask, first verifyTask) []verifyTask {
	batch = append(batch, first)
	for len(batch) < p.batchMax {
		select {
		case t := <-p.tasks:
			batch = append(batch, t)
			continue
		default:
		}
		break
	}
	if len(batch) >= p.batchMax {
		return batch
	}
	wait := adaptive.FillWait(&p.arrivals, len(batch), p.batchMax, p.minWait, p.maxWait)
	if wait <= 0 {
		return batch
	}
	start := time.Now()
	timer := time.NewTimer(wait)
	defer timer.Stop()
	for len(batch) < p.batchMax {
		select {
		case t := <-p.tasks:
			batch = append(batch, t)
		case <-timer.C:
			p.waitedNs.Add(uint64(time.Since(start)))
			return batch
		case <-p.stop:
			p.waitedNs.Add(uint64(time.Since(start)))
			return batch
		}
	}
	p.waitedNs.Add(uint64(time.Since(start)))
	return batch
}

// runTasks resolves one drained batch: cache pass first (hits answer
// immediately), then one multi-scalar combination over the Ed25519 misses,
// with everything else — other schemes, undersized remainders — verified
// singly. Cache policy per batch.go's analysis: a combination that passes
// clean vouches for every member (a forger without the key defeats it with
// probability ≤ 2⁻¹²⁶); once a batch has failed anywhere, only verdicts
// individually confirmed by stdlib verification may enter the cache.
func (p *VerifyPool) runTasks(tasks []verifyTask) {
	if len(tasks) == 1 {
		t := tasks[0]
		t.done(p.verifyCached(t.pub, t.msg, t.sig))
		return
	}
	var (
		eds   []*ed25519Pub
		msgs  [][]byte
		sigs  []Signature
		dones []func(bool)
		keys  []Hash
	)
	for _, t := range tasks {
		key := cacheKey(t.pub, t.msg, t.sig)
		shard := &p.shards[key[0]%cacheShardCount]
		if ok, cached := shard.get(key); cached {
			p.hits.Add(1)
			t.done(ok)
			continue
		}
		p.misses.Add(1)
		ep, isEd := t.pub.(*ed25519Pub)
		if p.batchMax <= 1 || !isEd {
			p.singles.Add(1)
			ok := t.pub.Verify(t.msg, t.sig)
			shard.put(key, ok)
			t.done(ok)
			continue
		}
		eds = append(eds, ep)
		msgs = append(msgs, t.msg)
		sigs = append(sigs, t.sig)
		dones = append(dones, t.done)
		keys = append(keys, key)
	}
	if len(eds) == 0 {
		return
	}
	if len(eds) == 1 {
		p.singles.Add(1)
		ok := eds[0].Verify(msgs[0], sigs[0])
		p.cachePut(keys[0], ok)
		dones[0](ok)
		return
	}
	outcomes, st := batchVerify(eds, msgs, sigs)
	p.batches.Add(1)
	p.batchedSigs.Add(uint64(len(eds)))
	p.bisections.Add(uint64(st.bisections))
	p.singles.Add(uint64(st.singles))
	for i, o := range outcomes {
		if st.cleanPass || o.confirmed {
			p.cachePut(keys[i], o.ok)
		}
		dones[i](o.ok)
	}
}

func (p *VerifyPool) cachePut(key Hash, ok bool) {
	p.shards[key[0]%cacheShardCount].put(key, ok)
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
// need a bool now gain the dedup but not the parallelism or batching (that
// is what VerifyAsync is for). Nil pools verify directly.
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
	p.arrivals.Observe(time.Now())
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

// Stats reports cache hits and misses since creation.
func (p *VerifyPool) Stats() (hits, misses uint64) {
	if p == nil {
		return 0, 0
	}
	return p.hits.Load(), p.misses.Load()
}

// PoolBatchStats is a snapshot of the batch path's activity.
type PoolBatchStats struct {
	// Batches is the number of top-level multi-scalar combinations run;
	// BatchedSigs the signatures they resolved (BatchedSigs/Batches is the
	// achieved average batch size).
	Batches     uint64
	BatchedSigs uint64
	// Bisections counts failed combinations that split — nonzero only when
	// forged or corrupted envelopes shared a batch with honest ones.
	Bisections uint64
	// Singles counts async cache misses resolved by one-off verification:
	// non-Ed25519 keys, undersized batches, bisection leaves, and
	// non-canonical signatures diverted off the batch path.
	Singles uint64
	// Waited is the cumulative time workers held partial batches open.
	Waited time.Duration
}

// BatchStats reports the batch path's activity since creation.
func (p *VerifyPool) BatchStats() PoolBatchStats {
	if p == nil {
		return PoolBatchStats{}
	}
	return PoolBatchStats{
		Batches:     p.batches.Load(),
		BatchedSigs: p.batchedSigs.Load(),
		Bisections:  p.bisections.Load(),
		Singles:     p.singles.Load(),
		Waited:      time.Duration(p.waitedNs.Load()),
	}
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
	h.Write(pub.Bytes())
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
