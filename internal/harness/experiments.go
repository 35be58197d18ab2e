package harness

import (
	"fmt"
	"io"
	"time"

	"repro/internal/flcrypto"
	"repro/internal/transport"
)

// Scale bundles the knobs that trade fidelity for wall-clock time: the
// quick profile is used by `go test`/CI and the benchmarks, the full
// profile by `flbench -full`.
type Scale struct {
	Workers   []int // ω sweep
	Ns        []int // cluster sizes
	Batches   []int // β sweep
	Sizes     []int // σ sweep
	Warmup    time.Duration
	Duration  time.Duration
	GeoScale  float64 // latency compression for the geo model
	BigN      int     // Fig 10 cluster size
	SigBench  time.Duration
	Bandwidth float64 // egress model, bytes/sec
}

// Quick is the CI-friendly profile: small sweeps, sub-second windows,
// compressed geo latency. Shapes survive; absolute numbers are smaller.
var Quick = Scale{
	Workers:   []int{1, 2, 4},
	Ns:        []int{4, 7},
	Batches:   []int{10, 100},
	Sizes:     []int{512},
	Warmup:    400 * time.Millisecond,
	Duration:  1200 * time.Millisecond,
	GeoScale:  0.05,
	BigN:      16,
	SigBench:  200 * time.Millisecond,
	Bandwidth: 10e9 / 8, // the paper's "up to 10 Gbps" links
}

// Full approximates the paper's Table 2 sweep (minutes of wall clock).
var Full = Scale{
	Workers:   []int{1, 2, 4, 6, 8, 10},
	Ns:        []int{4, 7, 10},
	Batches:   []int{10, 100, 1000},
	Sizes:     []int{512, 1024, 4096},
	Warmup:    2 * time.Second,
	Duration:  10 * time.Second,
	GeoScale:  0.25,
	BigN:      100,
	SigBench:  time.Second,
	Bandwidth: 10e9 / 8,
}

// Fig5 prints the signature-generation-rate micro-benchmark (§7.1): sps for
// every (ω, β, σ) combination.
func Fig5(w io.Writer, s Scale) {
	fmt.Fprintf(w, "# Fig 5: signature generation rate (ed25519; paper: ECDSA secp256k1)\n")
	fmt.Fprintf(w, "workers\tbatch\ttxsize\tsps\n")
	for _, batch := range s.Batches {
		for _, size := range s.Sizes {
			for _, workers := range s.Workers {
				sps := SignatureRate(flcrypto.Ed25519, workers, batch, size, s.SigBench)
				fmt.Fprintf(w, "%d\t%d\t%d\t%.0f\n", workers, batch, size, sps)
			}
		}
	}
}

// Fig6 prints FLO's blocks-per-second in a single data-center cluster.
func Fig6(w io.Writer, s Scale) {
	fmt.Fprintf(w, "# Fig 6: FLO bps, single data-center, sigma=0 (headers only)\n")
	fmt.Fprintf(w, "n\tworkers\tbps\n")
	for _, n := range s.Ns {
		for _, workers := range s.Workers {
			res := RunFLO(Options{
				N: n, Workers: workers, Batch: 1, TxSize: 64,
				Latency: transport.SingleDC(), EgressBytesPerSec: s.Bandwidth,
				Warmup: s.Warmup, Duration: s.Duration,
			})
			fmt.Fprintf(w, "%d\t%d\t%.0f\n", n, workers, res.BPS)
		}
	}
}

// Fig7 prints FLO's transaction throughput across the Table 2 sweep in a
// single data-center.
func Fig7(w io.Writer, s Scale) {
	fmt.Fprintf(w, "# Fig 7: FLO tps, single data-center\n")
	fmt.Fprintf(w, "n\tbatch\ttxsize\tworkers\ttps\n")
	for _, n := range s.Ns {
		for _, batch := range s.Batches {
			for _, size := range s.Sizes {
				for _, workers := range s.Workers {
					res := RunFLO(Options{
						N: n, Workers: workers, Batch: batch, TxSize: size,
						Latency: transport.SingleDC(), EgressBytesPerSec: s.Bandwidth,
						Warmup: s.Warmup, Duration: s.Duration,
					})
					fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%.0f\n", n, batch, size, workers, res.TPS)
				}
			}
		}
	}
}

// Fig8 prints latency CDFs for σ=512 configurations (single data-center).
func Fig8(w io.Writer, s Scale) {
	fmt.Fprintf(w, "# Fig 8: latency CDF, sigma=512, single data-center\n")
	for _, n := range s.Ns {
		for _, workers := range s.Workers {
			for _, batch := range s.Batches {
				res := RunFLO(Options{
					N: n, Workers: workers, Batch: batch, TxSize: 512,
					Latency: transport.SingleDC(), EgressBytesPerSec: s.Bandwidth,
					Warmup: s.Warmup, Duration: s.Duration,
				})
				fmt.Fprintf(w, "## n=%d workers=%d batch=%d (samples=%d)\n", n, workers, batch, res.Latency.Count())
				res.Latency.WriteCDF(w, 10)
			}
		}
	}
}

// Fig9 prints the event-breakdown heat values: average time between the
// five lifecycle events A..E.
func Fig9(w io.Writer, s Scale) {
	fmt.Fprintf(w, "# Fig 9: relative execution time between events (sigma=512)\n")
	fmt.Fprintf(w, "n\tworkers\tA->B\tB->C\tC->D\tD->E\n")
	for _, n := range s.Ns {
		for _, workers := range s.Workers {
			res := RunFLO(Options{
				N: n, Workers: workers, Batch: 100, TxSize: 512,
				Latency: transport.SingleDC(), EgressBytesPerSec: s.Bandwidth,
				Warmup: s.Warmup, Duration: s.Duration,
			})
			fmt.Fprintf(w, "%d\t%d\t%.4f\t%.4f\t%.4f\t%.4f\n", n, workers,
				res.Gaps[0].Seconds(), res.Gaps[1].Seconds(), res.Gaps[2].Seconds(), res.Gaps[3].Seconds())
		}
	}
}

// Fig10 prints the scalability run: a large cluster, σ=512.
func Fig10(w io.Writer, s Scale) {
	fmt.Fprintf(w, "# Fig 10: scalability, n=%d, sigma=512\n", s.BigN)
	fmt.Fprintf(w, "n\tbatch\tworkers\ttps\n")
	workers := s.Workers
	if len(workers) > 3 {
		workers = workers[:3] // the paper sweeps 1..5 at n=100
	}
	for _, batch := range s.Batches {
		for _, ww := range workers {
			res := RunFLO(Options{
				N: s.BigN, Workers: ww, Batch: batch, TxSize: 512,
				Latency: transport.SingleDC(), EgressBytesPerSec: s.Bandwidth,
				Warmup: 2 * s.Warmup, Duration: s.Duration,
			})
			fmt.Fprintf(w, "%d\t%d\t%d\t%.0f\n", s.BigN, batch, ww, res.TPS)
		}
	}
}

// Fig11 prints tps under crash failures of f nodes (§7.4.1).
func Fig11(w io.Writer, s Scale) {
	fmt.Fprintf(w, "# Fig 11: tps under crash of f nodes, sigma=512\n")
	fmt.Fprintf(w, "n\tf\tbatch\tworkers\ttps\n")
	for _, n := range s.Ns {
		f := (n - 1) / 3
		for _, batch := range s.Batches {
			for _, workers := range s.Workers {
				res := RunFLO(Options{
					N: n, Workers: workers, Batch: batch, TxSize: 512,
					Latency: transport.SingleDC(), EgressBytesPerSec: s.Bandwidth,
					Warmup: s.Warmup, Duration: 2 * s.Duration, CrashF: f,
				})
				fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%.0f\n", n, f, batch, workers, res.TPS)
			}
		}
	}
}

// Fig12 prints tps and recoveries/sec under Byzantine split-equivocators
// (§7.4.2).
func Fig12(w io.Writer, s Scale) {
	fmt.Fprintf(w, "# Fig 12: tps and rps under Byzantine equivocators, sigma=512\n")
	fmt.Fprintf(w, "n\tf\tbatch\tworkers\ttps\trps\n")
	for _, n := range s.Ns {
		f := (n - 1) / 3
		for _, batch := range s.Batches {
			for _, workers := range s.Workers {
				res := RunFLO(Options{
					N: n, Workers: workers, Batch: batch, TxSize: 512,
					Latency: transport.SingleDC(), EgressBytesPerSec: s.Bandwidth,
					Warmup: s.Warmup, Duration: 2 * s.Duration, ByzantineF: f,
				})
				fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%.0f\t%.2f\n", n, f, batch, workers, res.TPS, res.RPS)
			}
		}
	}
}

// Fig13 prints bps in the geo-distributed deployment (§7.5.1).
func Fig13(w io.Writer, s Scale) {
	fmt.Fprintf(w, "# Fig 13: FLO bps, multi data-center (geo scale %.2f)\n", s.GeoScale)
	fmt.Fprintf(w, "n\tworkers\tbps\n")
	for _, n := range s.Ns {
		for _, workers := range s.Workers {
			res := RunFLO(Options{
				N: n, Workers: workers, Batch: 1, TxSize: 64,
				Latency: transport.Geo(s.GeoScale), EgressBytesPerSec: s.Bandwidth,
				Warmup: 2 * s.Warmup, Duration: 2 * s.Duration,
				InitialTimer: 100 * time.Millisecond,
			})
			fmt.Fprintf(w, "%d\t%d\t%.0f\n", n, workers, res.BPS)
		}
	}
}

// Fig14 prints tps in the geo-distributed deployment, σ=512.
func Fig14(w io.Writer, s Scale) {
	fmt.Fprintf(w, "# Fig 14: FLO tps, multi data-center, sigma=512 (geo scale %.2f)\n", s.GeoScale)
	fmt.Fprintf(w, "n\tbatch\tworkers\ttps\n")
	for _, n := range s.Ns {
		for _, batch := range s.Batches {
			for _, workers := range s.Workers {
				res := RunFLO(Options{
					N: n, Workers: workers, Batch: batch, TxSize: 512,
					Latency: transport.Geo(s.GeoScale), EgressBytesPerSec: s.Bandwidth,
					Warmup: 2 * s.Warmup, Duration: 2 * s.Duration,
					InitialTimer: 100 * time.Millisecond,
				})
				fmt.Fprintf(w, "%d\t%d\t%d\t%.0f\n", n, batch, workers, res.TPS)
			}
		}
	}
}

// Fig15 prints geo latency with the 5% most extreme samples trimmed, as the
// paper does.
func Fig15(w io.Writer, s Scale) {
	fmt.Fprintf(w, "# Fig 15: FLO latency, multi data-center, sigma=512, 5%% trimmed\n")
	fmt.Fprintf(w, "n\tworkers\tbatch\ttrimmed-mean-s\tp50-s\tp90-s\n")
	for _, n := range s.Ns {
		for _, workers := range s.Workers {
			for _, batch := range s.Batches {
				res := RunFLO(Options{
					N: n, Workers: workers, Batch: batch, TxSize: 512,
					Latency: transport.Geo(s.GeoScale), EgressBytesPerSec: s.Bandwidth,
					Warmup: 2 * s.Warmup, Duration: 2 * s.Duration,
					InitialTimer: 100 * time.Millisecond,
				})
				fmt.Fprintf(w, "%d\t%d\t%d\t%.4f\t%.4f\t%.4f\n", n, workers, batch,
					res.Latency.TrimmedMean(0.05).Seconds(),
					res.Latency.Percentile(50).Seconds(),
					res.Latency.Percentile(90).Seconds())
			}
		}
	}
}

// Fig16 compares FLO against HotStuff (same harness, same load): tps and
// latency versus n, with the paper's β=1000, ω=8 FLO configuration.
func Fig16(w io.Writer, s Scale) {
	fmt.Fprintf(w, "# Fig 16: FLO vs HotStuff, single data-center\n")
	fmt.Fprintf(w, "n\ttxsize\tflo-tps\ths-tps\tflo-lat-s\ths-lat-s\n")
	floWorkers := 8
	floBatch := 1000
	if len(s.Workers) < 4 { // quick profile: scale the config down
		floWorkers = 4
		floBatch = 200
	}
	for _, n := range s.Ns {
		for _, size := range s.Sizes {
			fl := RunFLO(Options{
				N: n, Workers: floWorkers, Batch: floBatch, TxSize: size,
				Latency: transport.SingleDC(), EgressBytesPerSec: s.Bandwidth,
				Warmup: s.Warmup, Duration: s.Duration,
			})
			hs := RunHotStuff(Options{
				N: n, Batch: floBatch, TxSize: size,
				Latency: transport.SingleDC(), EgressBytesPerSec: s.Bandwidth,
				Warmup: s.Warmup, Duration: s.Duration,
			})
			fmt.Fprintf(w, "%d\t%d\t%.0f\t%.0f\t%.4f\t%.4f\n", n, size,
				fl.TPS, hs.TPS,
				fl.Latency.Percentile(50).Seconds(), hs.Latency.Percentile(50).Seconds())
		}
	}
}

// Fig17 compares FLO against the PBFT ordering service (BFT-SMaRt stand-in).
func Fig17(w io.Writer, s Scale) {
	fmt.Fprintf(w, "# Fig 17: FLO vs PBFT (BFT-SMaRt stand-in), single data-center\n")
	fmt.Fprintf(w, "n\ttxsize\tflo-tps\tpbft-tps\tflo-lat-s\tpbft-lat-s\n")
	floWorkers := 8
	floBatch := 1000
	if len(s.Workers) < 4 {
		floWorkers = 4
		floBatch = 200
	}
	for _, n := range s.Ns {
		for _, size := range s.Sizes {
			fl := RunFLO(Options{
				N: n, Workers: floWorkers, Batch: floBatch, TxSize: size,
				Latency: transport.SingleDC(), EgressBytesPerSec: s.Bandwidth,
				Warmup: s.Warmup, Duration: s.Duration,
			})
			pb := RunPBFT(Options{
				N: n, Batch: floBatch, TxSize: size,
				Latency: transport.SingleDC(), EgressBytesPerSec: s.Bandwidth,
				Warmup: s.Warmup, Duration: s.Duration,
			})
			fmt.Fprintf(w, "%d\t%d\t%.0f\t%.0f\t%.4f\t%.4f\n", n, size,
				fl.TPS, pb.TPS,
				fl.Latency.Percentile(50).Seconds(), pb.Latency.Percentile(50).Seconds())
		}
	}
}

// Table1 measures the performance-characteristics table: per-mode signature
// operations per block, OBBC fast-path share, and the structural latency in
// rounds (f+1 by construction).
func Table1(w io.Writer, s Scale) {
	fmt.Fprintf(w, "# Table 1: FireLedger per-mode characteristics (n=4, f=1)\n")
	fmt.Fprintf(w, "mode\tsign-ops/block\tmsgs/block/node\tfast-path-frac\trecoveries\tlatency-rounds\n")
	modes := []struct {
		name string
		opts Options
	}{
		{"fault-free", Options{N: 4, Batch: 100, TxSize: 512, Latency: transport.SingleDC(),
			Warmup: s.Warmup, Duration: s.Duration, EgressBytesPerSec: s.Bandwidth}},
		{"crash-f", Options{N: 4, Batch: 100, TxSize: 512, Latency: transport.SingleDC(),
			Warmup: s.Warmup, Duration: 2 * s.Duration, CrashF: 1, EgressBytesPerSec: s.Bandwidth}},
		{"byzantine-f", Options{N: 4, Batch: 100, TxSize: 512, Latency: transport.SingleDC(),
			Warmup: s.Warmup, Duration: 2 * s.Duration, ByzantineF: 1, EgressBytesPerSec: s.Bandwidth}},
	}
	for _, m := range modes {
		res := RunFLO(m.opts)
		fmt.Fprintf(w, "%s\t%.2f\t%.1f\t%.3f\t%.1f\t%d\n",
			m.name, res.SignOpsPerBlock, res.MsgsPerBlock, res.FastFraction, res.RPS*m.opts.Duration.Seconds(), 2 /* f+2 definite depth */)
	}
}

// Experiments maps experiment names to their runners, for cmd/flbench.
var Experiments = map[string]func(io.Writer, Scale){
	"table1": Table1,
	"fig5":   Fig5,
	"fig6":   Fig6,
	"fig7":   Fig7,
	"fig8":   Fig8,
	"fig9":   Fig9,
	"fig10":  Fig10,
	"fig11":  Fig11,
	"fig12":  Fig12,
	"fig13":  Fig13,
	"fig14":  Fig14,
	"fig15":  Fig15,
	"fig16":  Fig16,
	"fig17":  Fig17,
}

// ExperimentOrder lists experiments in paper order for `-exp all`.
var ExperimentOrder = []string{
	"table1", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
	"fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17",
}
