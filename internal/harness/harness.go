// Package harness runs measured cluster experiments: it assembles in-process
// clusters of FLO nodes (or HotStuff / PBFT baseline replicas) over the
// simulated network, injects the paper's §7.4 failure scenarios, and reports
// the metrics the evaluation figures plot. It is the engine behind both the
// testing.B benchmarks at the repository root and the cmd/flbench experiment
// runner.
package harness

import (
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/flcrypto"
	"repro/internal/flo"
	"repro/internal/metrics"
	"repro/internal/transport"
	"repro/internal/types"
	"repro/internal/workload"
)

// Options parameterizes one cluster run. Field names follow Table 2.
type Options struct {
	// N is the cluster size (Table 2: 4, 7, 10; Fig 10: 100).
	N int
	// Workers is ω.
	Workers int
	// Batch is β (transactions per block).
	Batch int
	// TxSize is σ in bytes.
	TxSize int
	// Latency is the network model (SingleDC, Geo); nil = zero latency.
	Latency transport.LatencyModel
	// EgressBytesPerSec models NIC bandwidth (0 = unlimited).
	EgressBytesPerSec float64
	// Warmup runs before measurement starts; Duration is the measured
	// window.
	Warmup   time.Duration
	Duration time.Duration
	// CrashF crashes nodes n−1, n−2, ... (CrashF of them) after warmup —
	// the §7.4.1 scenario.
	CrashF int
	// ByzantineF turns the last ByzantineF nodes into §7.4.2 split
	// equivocators from the start.
	ByzantineF int
	// EpochLen passes through to core (proposer reshuffling).
	EpochLen uint64
	// InitialTimer seeds the WRB adaptive timer (default 25ms).
	InitialTimer time.Duration
	// DisablePiggyback ablates the §5.1 piggyback optimization.
	DisablePiggyback bool
	// FDThreshold overrides the benign failure detector's strike threshold
	// (0 = default; a huge value effectively disables the FD).
	FDThreshold int
	// GossipBodies switches body dissemination from the clique overlay to
	// push-gossip with GossipFanout (§7.2.2's alternative).
	GossipBodies bool
	GossipFanout int
	// CompressBodies DEFLATE-frames body payloads (paper Conclusions).
	CompressBodies bool
	// CompressibleLoad makes the saturating workload's payloads
	// compressible text instead of random bytes, modeling real ledger
	// entries (only meaningful with CompressBodies).
	CompressibleLoad bool
	// ExcludeConvicted activates the accountability path: equivocators are
	// convicted on-chain and leave the proposer rotation.
	ExcludeConvicted bool
}

func (o *Options) fill() {
	if o.N == 0 {
		o.N = 4
	}
	if o.Workers == 0 {
		o.Workers = 1
	}
	if o.Batch == 0 {
		o.Batch = 100
	}
	if o.TxSize == 0 {
		o.TxSize = 512
	}
	if o.Warmup == 0 {
		o.Warmup = 300 * time.Millisecond
	}
	if o.Duration == 0 {
		o.Duration = time.Second
	}
	if o.InitialTimer == 0 {
		o.InitialTimer = 25 * time.Millisecond
	}
}

// Result carries the measurements a figure plots.
type Result struct {
	// TPS is definite transactions per second, averaged over the correct
	// nodes (the paper's main throughput metric).
	TPS float64
	// BPS is definite blocks per second (Fig 6, 13).
	BPS float64
	// RPS is recoveries per second across the cluster (Fig 12's bars).
	RPS float64
	// Latency is the block-birth→merged-delivery distribution (Fig 8, 15).
	Latency *metrics.Histogram
	// Gaps are the Fig 9 event-to-event averages (A→B, B→C, C→D, D→E).
	Gaps [metrics.EventCount - 1]time.Duration
	// FastFraction is the share of OBBC decisions taken on the fast path.
	FastFraction float64
	// SignOpsPerBlock is the average number of signature creations per
	// definite block at one correct node (Table 1 accounting).
	SignOpsPerBlock float64
	// MsgsPerBlock is the average number of transport messages sent per
	// definite block per node — Table 1's communication-steps accounting
	// (the fault-free optimum is ~n: one vote per node plus the proposer's
	// header and body sends, amortized).
	MsgsPerBlock float64
	// BytesPerBlock is the average egress bytes per definite block per node
	// (the compression ablation's metric).
	BytesPerBlock float64
	// Convictions is the total number of proposer exclusions registered
	// across correct nodes by the end of the run (convictions usually land
	// during warmup, so this is cumulative, not a window delta).
	Convictions uint64
	// EncPoolGets / EncPoolReuses are the encoder scratch-pool activity
	// during the measured window (process-wide deltas of types.PoolStats):
	// how many hot-path encodings ran through the pool and how many of
	// those were served by a recycled buffer instead of an allocation.
	EncPoolGets   uint64
	EncPoolReuses uint64
}

// RunFLO executes one FLO cluster experiment.
func RunFLO(opts Options) Result {
	opts.fill()
	ks := flcrypto.MustGenerateKeySet(opts.N, flcrypto.Ed25519)
	net := transport.NewChanNetwork(transport.ChanConfig{
		N:                 opts.N,
		Latency:           opts.Latency,
		EgressBytesPerSec: opts.EgressBytesPerSec,
	})
	defer net.Close()

	timeline := metrics.NewTimeline()
	latency := metrics.NewHistogram(0)
	var measuring atomic.Bool

	nodes := make([]*flo.Node, opts.N)
	correct := make([]int, 0, opts.N)
	for i := 0; i < opts.N; i++ {
		byz := i >= opts.N-opts.ByzantineF
		if !byz {
			correct = append(correct, i)
		}
		cfg := flo.Config{
			Endpoint:         net.Endpoint(flcrypto.NodeID(i)),
			Registry:         ks.Registry,
			Priv:             ks.Privs[i],
			Workers:          opts.Workers,
			BatchSize:        opts.Batch,
			Equivocate:       byz,
			EpochLen:         opts.EpochLen,
			InitialTimer:     opts.InitialTimer,
			DisablePiggyback: opts.DisablePiggyback,
			FDThreshold:      opts.FDThreshold,
			GossipBodies:     opts.GossipBodies,
			GossipFanout:     opts.GossipFanout,
			CompressBodies:   opts.CompressBodies,
			ExcludeConvicted: opts.ExcludeConvicted,
		}
		cfg.Source = workload.Saturating(flcrypto.NodeID(i), opts.TxSize, func(s *workload.SaturatingSource) {
			s.SetCompressible(opts.CompressibleLoad)
		})
		if i == 0 && !byz {
			// Node 0 instruments the timeline and the latency histogram.
			cfg.OnEvent = func(w uint32, round uint64, ev core.Event) {
				timeline.Record(w, round, int(ev))
			}
			cfg.Deliver = func(w uint32, blk types.Block) {
				timeline.Record(w, blk.Signed.Header.Round, 4)
				if !measuring.Load() {
					return
				}
				if birth, ok := timeline.Birth(w, blk.Signed.Header.Round); ok {
					latency.Observe(time.Since(birth))
				}
			}
		} else {
			cfg.OnEvent = func(w uint32, round uint64, ev core.Event) {
				if ev == core.EventBlockProposed {
					timeline.Record(w, round, 0)
				}
			}
		}
		node, err := flo.NewNode(cfg)
		if err != nil {
			panic(err)
		}
		nodes[i] = node
	}
	for _, node := range nodes {
		node.Start()
	}
	defer func() {
		for _, node := range nodes {
			node.Stop()
		}
	}()

	time.Sleep(opts.Warmup)

	// §7.4.1: crash after warmup, measure after the crash.
	for k := 0; k < opts.CrashF; k++ {
		net.Crash(flcrypto.NodeID(opts.N - 1 - k))
		if len(correct) > 0 && correct[len(correct)-1] == opts.N-1-k {
			correct = correct[:len(correct)-1]
		}
	}

	// Open the measurement window.
	measuring.Store(true)
	bases := make([]snap, opts.N)
	msgBases := make([]uint64, opts.N)
	byteBases := make([]uint64, opts.N)
	for _, i := range correct {
		bases[i] = snapshot(nodes[i], opts.Workers)
		msgBases[i] = net.MessagesSent(flcrypto.NodeID(i))
		byteBases[i] = net.BytesSent(flcrypto.NodeID(i))
	}
	poolGets0, poolReuses0 := types.PoolStats()
	start := time.Now()
	time.Sleep(opts.Duration)
	elapsed := time.Since(start).Seconds()
	measuring.Store(false)
	poolGets1, poolReuses1 := types.PoolStats()

	var res Result
	res.Latency = latency
	res.EncPoolGets = poolGets1 - poolGets0
	res.EncPoolReuses = poolReuses1 - poolReuses0
	var txs, blocks, recoveries, sign, fast, fallback, msgs, bytes float64
	for _, i := range correct {
		now := snapshot(nodes[i], opts.Workers)
		b := bases[i]
		txs += float64(now.txs - b.txs)
		blocks += float64(now.blocks - b.blocks)
		recoveries += float64(now.recoveries - b.recoveries)
		sign += float64(now.sign - b.sign)
		fast += float64(now.fast - b.fast)
		fallback += float64(now.fallback - b.fallback)
		msgs += float64(net.MessagesSent(flcrypto.NodeID(i)) - msgBases[i])
		bytes += float64(net.BytesSent(flcrypto.NodeID(i)) - byteBases[i])
		res.Convictions += now.convictions
	}
	nc := float64(len(correct))
	if nc > 0 && elapsed > 0 {
		// Average per-node definite throughput, like the paper ("results
		// were collected from all nodes and we took the average").
		res.TPS = txs / nc / elapsed
		res.BPS = blocks / nc / elapsed
		res.RPS = recoveries / nc / elapsed
		res.SignOpsPerBlock = safeDiv(sign/nc, blocks/nc)
		res.MsgsPerBlock = safeDiv(msgs/nc, blocks/nc)
		res.BytesPerBlock = safeDiv(bytes/nc, blocks/nc)
	}
	if fast+fallback > 0 {
		res.FastFraction = fast / (fast + fallback)
	}
	res.Gaps, _ = timeline.Gaps()
	return res
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

type snap struct{ txs, blocks, recoveries, sign, fast, fallback, convictions uint64 }

func snapshot(node *flo.Node, workers int) snap {
	var s snap
	for w := 0; w < workers; w++ {
		m := node.Worker(w).Metrics()
		s.txs += m.DefiniteTxs.Load()
		s.blocks += m.DefiniteBlocks.Load()
		s.recoveries += m.Recoveries.Load()
		s.sign += m.SignOps.Load()
		s.convictions += m.Convictions.Load()
	}
	s.sign += node.Replica().Metrics().SignOps.Load()
	// OBBC fast/fallback counters are inside each worker's service; they
	// are reachable through the node's internals only via metrics on the
	// obbc services, which flo exposes per worker.
	for w := 0; w < workers; w++ {
		om := node.OBBCMetrics(w)
		s.fast += om.FastDecisions.Load()
		s.fallback += om.FallbackDecisions.Load()
	}
	return s
}
