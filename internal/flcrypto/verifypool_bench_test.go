package flcrypto

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
)

// The sync-vs-pooled verification benchmarks: per-envelope cost of
//
//   - sync:  the pre-refactor model — every envelope verified inline on one
//     goroutine, no cache;
//   - pool/wW/cold: the async pipeline with W workers and a cache too small
//     to help (every check runs crypto, but W cores run it);
//   - pool/wW/warm: the same pipeline re-checking already-seen envelopes —
//     the WRB-echo/evidence-response case the verify cache exists for.
//
// Run with: go test -bench BenchmarkVerify -run '^$' ./internal/flcrypto

type benchEnv struct {
	msg []byte
	sig Signature
}

var (
	benchOnce sync.Once
	benchPub  PublicKey
	benchEnvs []benchEnv
)

const benchEnvCount = 4096

func benchSetup(b *testing.B) {
	b.Helper()
	benchOnce.Do(func() {
		priv, err := GenerateKey(Ed25519, nil)
		if err != nil {
			panic(err)
		}
		benchPub = priv.Public()
		for i := 0; i < benchEnvCount; i++ {
			msg := []byte(fmt.Sprintf("benchmark envelope %05d padded to a header-ish size ----------------", i))
			sig, err := priv.Sign(msg)
			if err != nil {
				panic(err)
			}
			benchEnvs = append(benchEnvs, benchEnv{msg: msg, sig: sig})
		}
	})
}

func BenchmarkVerifySync(b *testing.B) {
	benchSetup(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		env := &benchEnvs[i%benchEnvCount]
		if !benchPub.Verify(env.msg, env.sig) {
			b.Fatal("verification failed")
		}
	}
}

func benchPool(b *testing.B, workers int, warm bool) {
	benchSetup(b)
	cacheSize := 1 // floor: 128 entries over 4096 envelopes ≈ always cold
	if warm {
		cacheSize = 2 * benchEnvCount
	}
	p := NewVerifyPool(workers, cacheSize)
	defer p.Close()
	if warm {
		for i := range benchEnvs {
			if !p.Verify(benchPub, benchEnvs[i].msg, benchEnvs[i].sig) {
				b.Fatal("verification failed")
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	wg.Add(b.N)
	var failed bool
	for i := 0; i < b.N; i++ {
		env := &benchEnvs[i%benchEnvCount]
		p.VerifyAsync(benchPub, env.msg, env.sig, func(ok bool) {
			if !ok {
				failed = true
			}
			wg.Done()
		})
	}
	wg.Wait()
	b.StopTimer()
	if failed {
		b.Fatal("verification failed")
	}
	hits, misses := p.Stats()
	if total := hits + misses; total > 0 {
		b.ReportMetric(float64(hits)/float64(total), "cache-hit-frac")
	}
}

func BenchmarkVerifyPool(b *testing.B) {
	workerCounts := []int{1, 4, runtime.NumCPU()}
	if runtime.NumCPU() == 4 {
		workerCounts = workerCounts[:2]
	}
	for _, w := range workerCounts {
		for _, warm := range []bool{false, true} {
			label := "cold"
			if warm {
				label = "warm"
			}
			b.Run(fmt.Sprintf("w%d/%s", w, label), func(b *testing.B) {
				benchPool(b, w, warm)
			})
		}
	}
}
