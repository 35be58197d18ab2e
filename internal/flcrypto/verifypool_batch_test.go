package flcrypto

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestVerifyPoolWorkersPinned is the regression test for the constructor's
// worker-count semantics: zero and negative counts select GOMAXPROCS —
// deterministically, not "whatever happened to work" — and explicit counts
// are taken literally. Several callers (including this repo's own tests)
// pass 0 and depend on getting a real pool.
func TestVerifyPoolWorkersPinned(t *testing.T) {
	want := runtime.GOMAXPROCS(0)
	for _, w := range []int{0, -1, -64} {
		p := NewVerifyPool(w, 0)
		if got := p.Workers(); got != want {
			t.Fatalf("NewVerifyPool(%d, 0).Workers() = %d, want GOMAXPROCS = %d", w, got, want)
		}
		p.Close()
	}
	p := NewVerifyPool(3, 0)
	if got := p.Workers(); got != 3 {
		t.Fatalf("explicit worker count not honored: got %d", got)
	}
	p.Close()
	if (*VerifyPool)(nil).Workers() != 0 {
		t.Fatal("nil pool must report zero workers")
	}
}

// TestVerifyPoolBatchOnByDefault pins the default configuration the rest of
// the repo assumes: a plain NewVerifyPool batches.
func TestVerifyPoolBatchOnByDefault(t *testing.T) {
	p := NewVerifyPool(0, 0)
	defer p.Close()
	if !p.BatchEnabled() || p.BatchMax() != DefaultBatchMax {
		t.Fatalf("default pool: BatchEnabled=%v BatchMax=%d, want true/%d", p.BatchEnabled(), p.BatchMax(), DefaultBatchMax)
	}
	po := NewVerifyPoolOpts(PoolOptions{BatchMax: 1})
	defer po.Close()
	if po.BatchEnabled() {
		t.Fatal("BatchMax 1 pool still reports batching")
	}
	if (*VerifyPool)(nil).BatchEnabled() {
		t.Fatal("nil pool reports batching")
	}
}

// TestVerifyPoolBatchPathResolvesLoad drives enough concurrent async work
// through a batching pool that real multi-scalar combinations run, and
// checks every verdict. This is also the -race target CI runs for the batch
// pool under concurrent forged/valid load.
func TestVerifyPoolBatchPathResolvesLoad(t *testing.T) {
	ks := MustGenerateKeySet(4, Ed25519)
	p := NewVerifyPoolOpts(PoolOptions{Workers: 2, MinBatchWait: 200 * time.Microsecond})
	defer p.Close()

	const submitters = 6
	const perSubmitter = 300
	var wrong atomic.Uint64
	var wg sync.WaitGroup
	for s := 0; s < submitters; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			var cbs sync.WaitGroup
			for i := 0; i < perSubmitter; i++ {
				node := (s + i) % 4
				msg := []byte(fmt.Sprintf("batch load envelope %d/%d", s, i))
				sig, err := ks.Privs[node].Sign(msg)
				if err != nil {
					wrong.Add(1)
					continue
				}
				forged := i%4 == 0
				if forged {
					sig = append(Signature(nil), sig...)
					sig[32+(i%31)] ^= 0x20 // tamper with s: stays batch-decodable
				}
				cbs.Add(1)
				p.VerifyAsyncNode(ks.Registry, NodeID(node), msg, sig, func(ok bool) {
					if ok == forged {
						wrong.Add(1)
					}
					cbs.Done()
				})
			}
			cbs.Wait()
		}(s)
	}
	wg.Wait()
	if n := wrong.Load(); n != 0 {
		t.Fatalf("%d wrong verdicts under concurrent forged/valid batch load", n)
	}
	st := p.BatchStats()
	if st.Batches == 0 || st.BatchedSigs == 0 {
		t.Fatalf("no batches ran under load: %+v", st)
	}
}

// cachedAs reports whether the envelope currently has a cache entry, and
// its cached verdict.
func (p *VerifyPool) cachedAs(pub PublicKey, msg []byte, sig Signature) (ok, cached bool) {
	key := cacheKey(pub, msg, sig)
	return p.shards[key[0]%cacheShardCount].get(key)
}

// TestVerifyPoolForgedPositionsProperty is the cache-poisoning property
// test: seed 1..k forged signatures at random positions of an N-batch,
// submit the whole batch through the async path, and assert that (a)
// exactly the forged positions get false, (b) the cache never holds a
// forged envelope as valid, and (c) honest envelopes are not cached invalid.
// Runs 1000 iterations (100 under -short); the CI batch step runs it with
// -race.
func TestVerifyPoolForgedPositionsProperty(t *testing.T) {
	iters := 1000
	if testing.Short() {
		iters = 100
	}
	const n = 8
	ks := MustGenerateKeySet(n, Ed25519)
	p := NewVerifyPoolOpts(PoolOptions{Workers: 2, MinBatchWait: 100 * time.Microsecond})
	defer p.Close()
	rng := rand.New(rand.NewSource(42))

	type item struct {
		pub    PublicKey
		msg    []byte
		sig    Signature
		forged bool
	}
	for iter := 0; iter < iters; iter++ {
		items := make([]item, n)
		k := 1 + rng.Intn(3)
		forgedAt := rng.Perm(n)[:k]
		isForged := map[int]bool{}
		for _, i := range forgedAt {
			isForged[i] = true
		}
		for i := 0; i < n; i++ {
			msg := []byte(fmt.Sprintf("property %d/%d", iter, i))
			sig, err := ks.Privs[i].Sign(msg)
			if err != nil {
				t.Fatal(err)
			}
			if isForged[i] {
				sig = append(Signature(nil), sig...)
				// Alternate corruption classes: tampered s (rides into the
				// combination, isolated by bisection), tampered R (diverted
				// to the individual path), tampered message bytes.
				switch rng.Intn(3) {
				case 0:
					sig[32+rng.Intn(31)] ^= byte(1 + rng.Intn(255))
				case 1:
					sig[rng.Intn(32)] ^= byte(1 + rng.Intn(255))
				default:
					msg = append([]byte(nil), msg...)
					msg[rng.Intn(len(msg))] ^= byte(1 + rng.Intn(255))
				}
			}
			items[i] = item{pub: ks.Registry.PublicKey(NodeID(i)), msg: msg, sig: sig, forged: isForged[i]}
		}
		var wg sync.WaitGroup
		got := make([]bool, n)
		for i := range items {
			i := i
			wg.Add(1)
			p.VerifyAsync(items[i].pub, items[i].msg, items[i].sig, func(ok bool) {
				got[i] = ok
				wg.Done()
			})
		}
		wg.Wait()
		for i, it := range items {
			if got[i] == it.forged {
				t.Fatalf("iter %d item %d: verdict %v, forged %v", iter, i, got[i], it.forged)
			}
			ok, cached := p.cachedAs(it.pub, it.msg, it.sig)
			if it.forged && cached && ok {
				t.Fatalf("iter %d: forged envelope %d cached as valid", iter, i)
			}
			if !it.forged && cached && !ok {
				t.Fatalf("iter %d: honest envelope %d cached as invalid", iter, i)
			}
		}
	}
}

// TestVerifyPoolLoneRequestLatency pins the no-starvation bound of the
// adaptive fill wait: a lone request in a quiet pool completes within (a
// small multiple of) MinBatchWait even though MaxBatchWait is enormous —
// both on a cold estimator and on one left stale-high by an earlier burst.
// This is the PR 8 WRB lesson applied here: an estimator that has only seen
// the fast path must not wedge the slow one.
func TestVerifyPoolLoneRequestLatency(t *testing.T) {
	priv, pub := poolKeyPair(t)
	const minWait = 10 * time.Millisecond
	const maxWait = 3 * time.Second
	p := NewVerifyPoolOpts(PoolOptions{Workers: 1, MinBatchWait: minWait, MaxBatchWait: maxWait})
	defer p.Close()
	// The bound a starvation bug would break is maxWait; anything far below
	// it proves the lone request took the MinBatchWait branch. 1s of slack
	// absorbs CI scheduling noise without weakening that proof.
	const bound = time.Second

	lone := func(label string, i int) {
		msg := []byte(fmt.Sprintf("lone %s %d", label, i))
		sig, _ := priv.Sign(msg)
		done := make(chan struct{})
		start := time.Now()
		p.VerifyAsync(pub, msg, sig, func(ok bool) {
			if !ok {
				t.Errorf("%s: lone request rejected", label)
			}
			close(done)
		})
		<-done
		if elapsed := time.Since(start); elapsed > bound {
			t.Fatalf("%s: lone request took %v (MinBatchWait %v, MaxBatchWait %v)", label, elapsed, minWait, maxWait)
		}
	}
	// Cold estimator: rate unknown, must take the MinBatchWait branch.
	lone("cold", 0)

	// Prime the estimator with a dense burst so a naive controller would
	// project a fast fill and hold a long wait open.
	var wg sync.WaitGroup
	for i := 0; i < 500; i++ {
		msg := []byte(fmt.Sprintf("burst %d", i))
		sig, _ := priv.Sign(msg)
		wg.Add(1)
		p.VerifyAsync(pub, msg, sig, func(bool) { wg.Done() })
	}
	wg.Wait()
	time.Sleep(20 * time.Millisecond) // cluster goes quiet
	lone("stale-high", 1)
}

// TestVerifyPoolCloseDeterministic is the regression test for the
// Close/VerifyAsync race: submissions racing Close used to be able to land
// in the queue after the drain pass and never get their callback. The
// contract now: every VerifyAsync that returns gets its callback — from a
// worker, from Close's drain, or synchronously after close — never dropped.
func TestVerifyPoolCloseDeterministic(t *testing.T) {
	priv, pub := poolKeyPair(t)
	msg := []byte("closing race")
	sig, _ := priv.Sign(msg)
	for round := 0; round < 20; round++ {
		p := NewVerifyPoolOpts(PoolOptions{Workers: 2, MinBatchWait: -1})
		var submitted, called atomic.Uint64
		var wg sync.WaitGroup
		stop := make(chan struct{})
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					p.VerifyAsync(pub, msg, sig, func(ok bool) {
						if ok {
							called.Add(1)
						}
					})
					submitted.Add(1)
				}
			}()
		}
		time.Sleep(time.Duration(round%5) * 100 * time.Microsecond)
		p.Close()
		close(stop)
		wg.Wait()
		// Submissions that returned after Close ran synchronously, so by
		// this point every callback must have fired.
		if s, c := submitted.Load(), called.Load(); s != c {
			t.Fatalf("round %d: %d submissions but %d callbacks", round, s, c)
		}
	}
}
