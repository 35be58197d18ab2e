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

func poolKeyPair(t *testing.T) (PrivateKey, PublicKey) {
	t.Helper()
	priv, err := GenerateKey(Ed25519, nil)
	if err != nil {
		t.Fatal(err)
	}
	return priv, priv.Public()
}

func TestVerifyPoolCacheHitMiss(t *testing.T) {
	priv, pub := poolKeyPair(t)
	p := NewVerifyPool(2, 0)
	defer p.Close()

	msg := []byte("cached envelope")
	sig, err := priv.Sign(msg)
	if err != nil {
		t.Fatal(err)
	}

	// First check: a miss that runs the crypto.
	if !p.Verify(pub, msg, sig) {
		t.Fatal("valid signature rejected")
	}
	hits, misses := p.Stats()
	if hits != 0 || misses != 1 {
		t.Fatalf("after first check: hits=%d misses=%d, want 0/1", hits, misses)
	}
	// Re-presenting the same envelope hits the cache.
	for i := 0; i < 5; i++ {
		if !p.Verify(pub, msg, sig) {
			t.Fatal("cached valid signature rejected")
		}
	}
	hits, misses = p.Stats()
	if hits != 5 || misses != 1 {
		t.Fatalf("after re-checks: hits=%d misses=%d, want 5/1", hits, misses)
	}

	// A different message is a fresh miss.
	msg2 := []byte("other envelope")
	sig2, _ := priv.Sign(msg2)
	if !p.Verify(pub, msg2, sig2) {
		t.Fatal("valid signature rejected")
	}
	if _, misses = p.Stats(); misses != 2 {
		t.Fatalf("misses = %d, want 2", misses)
	}
}

func TestVerifyPoolNoCacheBypassForForgeries(t *testing.T) {
	// The key property behind the ISSUE's "no verification bypass via the
	// cache": after a genuine envelope is cached as valid, a forged
	// signature over the same message — or the same signature over a
	// tampered message, or the right pair under the wrong key — must still
	// be rejected.
	priv, pub := poolKeyPair(t)
	otherPriv, otherPub := poolKeyPair(t)
	p := NewVerifyPool(2, 0)
	defer p.Close()

	msg := []byte("transfer 10 to alice")
	sig, _ := priv.Sign(msg)
	if !p.Verify(pub, msg, sig) {
		t.Fatal("valid signature rejected")
	}

	forged := append(Signature(nil), sig...)
	forged[0] ^= 0xff
	if p.Verify(pub, msg, forged) {
		t.Fatal("forged signature accepted after genuine one was cached")
	}
	tampered := []byte("transfer 10 to mallory")
	if p.Verify(pub, tampered, sig) {
		t.Fatal("signature accepted over tampered message")
	}
	if p.Verify(otherPub, msg, sig) {
		t.Fatal("signature accepted under the wrong public key")
	}
	// And the reverse: a cached negative must not block the real one.
	otherSig, _ := otherPriv.Sign(msg)
	if !p.Verify(otherPub, msg, otherSig) {
		t.Fatal("valid signature rejected after forgery was cached")
	}
}

func TestVerifyPoolForgedRejectionUnderConcurrentLoad(t *testing.T) {
	// Mixed genuine and forged envelopes from many goroutines: every
	// genuine check must pass and every forged one must fail, regardless of
	// cache state and interleaving.
	priv, pub := poolKeyPair(t)
	p := NewVerifyPool(0, 64) // small cache to force eviction churn
	defer p.Close()

	const workers = 8
	const perWorker = 200
	var wrong atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				msg := []byte(fmt.Sprintf("envelope %d", i%20)) // shared across workers
				sig, err := priv.Sign(msg)
				if err != nil {
					wrong.Add(1)
					return
				}
				if i%3 == 0 {
					bad := append(Signature(nil), sig...)
					bad[i%len(bad)] ^= 0x55
					if p.Verify(pub, msg, bad) {
						wrong.Add(1)
					}
				} else if !p.Verify(pub, msg, sig) {
					wrong.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	if n := wrong.Load(); n != 0 {
		t.Fatalf("%d wrong verification results under concurrent load", n)
	}
	hits, misses := p.Stats()
	if hits == 0 {
		t.Fatalf("expected cache hits under repeated load (hits=%d misses=%d)", hits, misses)
	}
}

func TestVerifyPoolAsync(t *testing.T) {
	priv, pub := poolKeyPair(t)
	p := NewVerifyPool(4, 0)
	defer p.Close()

	msg := []byte("async envelope")
	sig, _ := priv.Sign(msg)
	forged := append(Signature(nil), sig...)
	forged[3] ^= 0x01

	const k = 100
	results := make(chan bool, 2*k)
	for i := 0; i < k; i++ {
		p.VerifyAsync(pub, msg, sig, func(ok bool) { results <- ok })
		p.VerifyAsync(pub, msg, forged, func(ok bool) { results <- !ok })
	}
	for i := 0; i < 2*k; i++ {
		if !<-results {
			t.Fatal("async verification produced a wrong result")
		}
	}
}

func TestVerifyPoolNilIsSynchronous(t *testing.T) {
	// A nil pool is the SyncVerify escape hatch: verification still works,
	// done callbacks run inline on the caller.
	priv, pub := poolKeyPair(t)
	var p *VerifyPool

	msg := []byte("sync fallback")
	sig, _ := priv.Sign(msg)
	if !p.Verify(pub, msg, sig) {
		t.Fatal("nil pool rejected a valid signature")
	}
	if p.Verify(pub, []byte("tampered"), sig) {
		t.Fatal("nil pool accepted an invalid signature")
	}
	called := false
	p.VerifyAsync(pub, msg, sig, func(ok bool) { called = ok })
	if !called {
		t.Fatal("nil pool did not invoke done synchronously")
	}
	p.Close() // must not panic
}

func TestVerifyPoolVerifyNode(t *testing.T) {
	ks := MustGenerateKeySet(4, Ed25519)
	p := NewVerifyPool(2, 0)
	defer p.Close()

	msg := []byte("registry routed")
	sig, _ := ks.Privs[2].Sign(msg)
	if !p.VerifyNode(ks.Registry, 2, msg, sig) {
		t.Fatal("valid signature rejected")
	}
	if p.VerifyNode(ks.Registry, 1, msg, sig) {
		t.Fatal("signature accepted for the wrong node")
	}
	if p.VerifyNode(ks.Registry, 99, msg, sig) {
		t.Fatal("signature accepted for an unregistered node")
	}
}

func TestVerifyPoolLRUEviction(t *testing.T) {
	priv, pub := poolKeyPair(t)
	// Tiny cache: 16 shards × 8 entries minimum = 128 total.
	p := NewVerifyPool(1, 1)
	defer p.Close()

	type env struct {
		msg []byte
		sig Signature
	}
	var envs []env
	for i := 0; i < 1000; i++ {
		msg := []byte(fmt.Sprintf("evicted %d", i))
		sig, _ := priv.Sign(msg)
		envs = append(envs, env{msg, sig})
		if !p.Verify(pub, msg, sig) {
			t.Fatal("valid signature rejected")
		}
	}
	_, missesBefore := p.Stats()
	// The earliest envelope must have been evicted: re-checking it is a
	// miss (and still correct).
	if !p.Verify(pub, envs[0].msg, envs[0].sig) {
		t.Fatal("valid signature rejected after eviction")
	}
	_, missesAfter := p.Stats()
	if missesAfter != missesBefore+1 {
		t.Fatalf("expected an eviction-induced miss (misses %d -> %d)", missesBefore, missesAfter)
	}
}

func TestVerifyPoolCloseCompletesQueued(t *testing.T) {
	priv, pub := poolKeyPair(t)
	p := NewVerifyPool(1, 0)
	msg := []byte("closing")
	sig, _ := priv.Sign(msg)

	var done sync.WaitGroup
	var ok atomic.Uint64
	for i := 0; i < 50; i++ {
		done.Add(1)
		p.VerifyAsync(pub, msg, sig, func(v bool) {
			if v {
				ok.Add(1)
			}
			done.Done()
		})
	}
	p.Close()
	done.Wait()
	if ok.Load() != 50 {
		t.Fatalf("only %d/50 queued verifications completed across Close", ok.Load())
	}
	// Submissions after Close still complete synchronously.
	ran := false
	p.VerifyAsync(pub, msg, sig, func(v bool) { ran = v })
	if !ran {
		t.Fatal("VerifyAsync after Close did not run")
	}
}

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

// cachedAs reports whether the envelope currently has a cache entry, and
// its cached verdict.
func (p *VerifyPool) cachedAs(pub PublicKey, msg []byte, sig Signature) (ok, cached bool) {
	key := cacheKey(pub, msg, sig)
	return p.shards[key[0]%cacheShardCount].get(key)
}

// TestVerifyPoolForgedPositionsProperty is the cache-poisoning property
// test: seed 1..k forged envelopes at random positions among N honest ones,
// submit them all concurrently through VerifyAsync, and assert that (a)
// exactly the forged positions get false, (b) the cache never holds a forged
// envelope as valid, and (c) honest envelopes are not cached invalid. Runs
// 1000 iterations (100 under -short).
func TestVerifyPoolForgedPositionsProperty(t *testing.T) {
	iters := 1000
	if testing.Short() {
		iters = 100
	}
	const n = 8
	ks := MustGenerateKeySet(n, Ed25519)
	p := NewVerifyPool(2, 0)
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
				// Alternate corruption classes: tampered s, tampered R,
				// tampered message bytes.
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
		p := NewVerifyPool(2, 0)
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
