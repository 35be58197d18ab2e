package fireledger

// One testing.B benchmark per table and figure of the paper's evaluation
// (§7). Each benchmark runs the corresponding harness experiment at a small
// fixed configuration per iteration and reports the figure's headline
// metric (tps, bps, sps, latency) via b.ReportMetric, so `go test -bench=.
// -benchmem` regenerates the whole evaluation at smoke scale. For the full
// parameter sweeps with paper-style rows, use cmd/flbench.

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/flcrypto"
	"repro/internal/harness"
	"repro/internal/transport"
)

// benchOpts is the shared per-iteration configuration: short windows keep
// b.N iterations affordable while still measuring steady state.
func benchOpts(n, workers, batch, size int) harness.Options {
	return harness.Options{
		N: n, Workers: workers, Batch: batch, TxSize: size,
		Latency:           transport.SingleDC(),
		EgressBytesPerSec: 10e9 / 8,
		Warmup:            300 * time.Millisecond,
		Duration:          700 * time.Millisecond,
	}
}

func reportFLO(b *testing.B, opts harness.Options) {
	b.Helper()
	// Allocation tracking rides on every cluster benchmark: run with
	// -benchmem to see allocs/op alongside the throughput metrics, so an
	// encode/hash regression shows up as an allocation spike here even
	// before it costs visible tps.
	b.ReportAllocs()
	var tps, bps, lat, poolReuse float64
	for i := 0; i < b.N; i++ {
		res := harness.RunFLO(opts)
		tps, bps = res.TPS, res.BPS
		lat = res.Latency.Percentile(50).Seconds()
		if res.EncPoolGets > 0 {
			poolReuse = float64(res.EncPoolReuses) / float64(res.EncPoolGets)
		}
	}
	b.ReportMetric(tps, "tps")
	b.ReportMetric(bps, "bps")
	b.ReportMetric(lat*1000, "latency-ms-p50")
	if poolReuse > 0 {
		b.ReportMetric(poolReuse, "encpool-reuse-frac")
	}
}

// BenchmarkTable1 measures the per-mode characteristics: signature
// operations per block and the OBBC fast-path fraction in the fault-free,
// crash, and Byzantine modes.
func BenchmarkTable1(b *testing.B) {
	modes := []struct {
		name             string
		crash, byzantine int
	}{
		{"fault-free", 0, 0},
		{"crash-f", 1, 0},
		{"byzantine-f", 0, 1},
	}
	for _, m := range modes {
		b.Run(m.name, func(b *testing.B) {
			opts := benchOpts(4, 1, 100, 512)
			opts.CrashF = m.crash
			opts.ByzantineF = m.byzantine
			opts.Duration = 1500 * time.Millisecond
			var sign, fast, rps float64
			for i := 0; i < b.N; i++ {
				res := harness.RunFLO(opts)
				sign, fast, rps = res.SignOpsPerBlock, res.FastFraction, res.RPS
			}
			b.ReportMetric(sign, "sign-ops/block")
			b.ReportMetric(fast, "fast-frac")
			b.ReportMetric(rps, "recoveries/s")
		})
	}
}

// BenchmarkFig5 measures the signature generation rate (sps) across the ω,
// β, σ grid of the §7.1 micro-benchmark.
func BenchmarkFig5(b *testing.B) {
	for _, workers := range []int{1, 4} {
		for _, batch := range []int{10, 1000} {
			for _, size := range []int{512, 4096} {
				b.Run(fmt.Sprintf("w%d/beta%d/sigma%d", workers, batch, size), func(b *testing.B) {
					var sps float64
					for i := 0; i < b.N; i++ {
						sps = harness.SignatureRate(flcrypto.Ed25519, workers, batch, size, 150*time.Millisecond)
					}
					b.ReportMetric(sps, "sps")
				})
			}
		}
	}
}

// BenchmarkFig6 measures FLO's block rate (bps) versus cluster size in a
// single data-center.
func BenchmarkFig6(b *testing.B) {
	for _, n := range []int{4, 7, 10} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			reportFLO(b, benchOpts(n, 2, 1, 64))
		})
	}
}

// BenchmarkFig7 measures FLO's transaction throughput across the Table 2
// sweep corners in a single data-center.
func BenchmarkFig7(b *testing.B) {
	for _, n := range []int{4, 10} {
		for _, batch := range []int{10, 1000} {
			b.Run(fmt.Sprintf("n%d/beta%d/sigma512", n, batch), func(b *testing.B) {
				reportFLO(b, benchOpts(n, 4, batch, 512))
			})
		}
	}
}

// BenchmarkFig8 measures the delivery-latency distribution (the CDFs of
// Fig 8): p50 and p99 for σ=512.
func BenchmarkFig8(b *testing.B) {
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("w%d", workers), func(b *testing.B) {
			opts := benchOpts(4, workers, 100, 512)
			var p50, p99 float64
			for i := 0; i < b.N; i++ {
				res := harness.RunFLO(opts)
				p50 = res.Latency.Percentile(50).Seconds() * 1000
				p99 = res.Latency.Percentile(99).Seconds() * 1000
			}
			b.ReportMetric(p50, "latency-ms-p50")
			b.ReportMetric(p99, "latency-ms-p99")
		})
	}
}

// BenchmarkFig9 measures the event-breakdown gaps (A→B, B→C, C→D, D→E).
func BenchmarkFig9(b *testing.B) {
	opts := benchOpts(4, 2, 100, 512)
	var gaps [4]float64
	for i := 0; i < b.N; i++ {
		res := harness.RunFLO(opts)
		for g := 0; g < 4; g++ {
			gaps[g] = res.Gaps[g].Seconds() * 1000
		}
	}
	for g, name := range []string{"A-B", "B-C", "C-D", "D-E"} {
		b.ReportMetric(gaps[g], name+"-ms")
	}
}

// BenchmarkFig10 measures scalability at a large cluster size.
func BenchmarkFig10(b *testing.B) {
	opts := benchOpts(16, 1, 100, 512)
	opts.Warmup = time.Second
	reportFLO(b, opts)
}

// BenchmarkFig11 measures throughput while f nodes are crashed.
func BenchmarkFig11(b *testing.B) {
	for _, n := range []int{4, 7} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			opts := benchOpts(n, 1, 100, 512)
			opts.CrashF = (n - 1) / 3
			opts.Duration = 2 * time.Second
			reportFLO(b, opts)
		})
	}
}

// BenchmarkFig12 measures throughput and recovery rate under the §7.4.2
// Byzantine split-equivocator.
func BenchmarkFig12(b *testing.B) {
	opts := benchOpts(4, 1, 100, 512)
	opts.ByzantineF = 1
	opts.Warmup = time.Second
	opts.Duration = 3 * time.Second
	var tps, rps float64
	for i := 0; i < b.N; i++ {
		res := harness.RunFLO(opts)
		tps, rps = res.TPS, res.RPS
	}
	b.ReportMetric(tps, "tps")
	b.ReportMetric(rps, "recoveries/s")
}

// BenchmarkFig13 measures the block rate in the geo-distributed setting.
func BenchmarkFig13(b *testing.B) {
	for _, n := range []int{4, 10} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			opts := benchOpts(n, 2, 1, 64)
			opts.Latency = transport.Geo(0.05)
			opts.InitialTimer = 100 * time.Millisecond
			opts.Warmup = time.Second
			opts.Duration = 2 * time.Second
			reportFLO(b, opts)
		})
	}
}

// BenchmarkFig14 measures geo throughput for σ=512.
func BenchmarkFig14(b *testing.B) {
	opts := benchOpts(10, 4, 100, 512)
	opts.Latency = transport.Geo(0.05)
	opts.InitialTimer = 100 * time.Millisecond
	opts.Warmup = time.Second
	opts.Duration = 2 * time.Second
	reportFLO(b, opts)
}

// BenchmarkFig15 measures geo latency (5% trimmed mean, as in the paper).
func BenchmarkFig15(b *testing.B) {
	opts := benchOpts(10, 1, 100, 512)
	opts.Latency = transport.Geo(0.05)
	opts.InitialTimer = 100 * time.Millisecond
	opts.Warmup = time.Second
	opts.Duration = 2 * time.Second
	var trimmed float64
	for i := 0; i < b.N; i++ {
		res := harness.RunFLO(opts)
		trimmed = res.Latency.TrimmedMean(0.05).Seconds() * 1000
	}
	b.ReportMetric(trimmed, "latency-ms-trimmed")
}

// BenchmarkFig16 compares FLO and HotStuff on the same harness.
func BenchmarkFig16(b *testing.B) {
	opts := benchOpts(4, 4, 200, 512)
	b.Run("flo", func(b *testing.B) { reportFLO(b, opts) })
	b.Run("hotstuff", func(b *testing.B) {
		var tps, lat float64
		for i := 0; i < b.N; i++ {
			res := harness.RunHotStuff(opts)
			tps = res.TPS
			lat = res.Latency.Percentile(50).Seconds() * 1000
		}
		b.ReportMetric(tps, "tps")
		b.ReportMetric(lat, "latency-ms-p50")
	})
}

// BenchmarkFig17 compares FLO and the PBFT ordering service (the BFT-SMaRt
// stand-in).
func BenchmarkFig17(b *testing.B) {
	opts := benchOpts(4, 4, 200, 512)
	b.Run("flo", func(b *testing.B) { reportFLO(b, opts) })
	b.Run("pbft", func(b *testing.B) {
		var tps, lat float64
		for i := 0; i < b.N; i++ {
			res := harness.RunPBFT(opts)
			tps = res.TPS
			lat = res.Latency.Percentile(50).Seconds() * 1000
		}
		b.ReportMetric(tps, "tps")
		b.ReportMetric(lat, "latency-ms-p50")
	})
}
