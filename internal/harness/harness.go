// Package harness runs measured cluster experiments: it assembles in-process
// clusters of FLO nodes (or HotStuff / PBFT baseline replicas) over the
// simulated network, injects the paper's §7.4 failure scenarios, and reports
// the metrics the evaluation figures plot. It is the engine behind both the
// testing.B benchmarks at the repository root and the cmd/flbench experiment
// runner.
package harness

import (
	"fmt"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/flcrypto"
	"repro/internal/flo"
	"repro/internal/metrics"
	"repro/internal/statemachine"
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
	// MaxPending bounds outstanding undecided blocks (flow control).
	MaxPending int
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
	// SyncVerify disables the asynchronous verification pipeline (worker
	// pool + verify cache) — the ablation knob for the verification
	// benchmarks. Default false: the pipeline is on, as in deployment.
	SyncVerify bool
	// DisableBatchVerify keeps the verify pool but turns off its
	// multi-scalar batch path, so every async miss runs a one-off
	// ed25519.Verify — the middle ablation between SyncVerify and the
	// default batched pipeline (the "verify" experiment's three modes).
	DisableBatchVerify bool
	// State attaches a managed state backend to every node: "" (none),
	// "map", or "durable" (on a temp dir, removed after the run). With a
	// backend the saturating load emits Set commands over StateKeys keys
	// (default 5000) instead of random bytes, so the backend sees real
	// writes of the same σ.
	State     string
	StateKeys int
	// StateReaders runs that many concurrent read loops against node 0's
	// replica during the measured window. Each loop is paced (one 15-get +
	// 1-scan cycle per millisecond) so reads ride alongside the write load
	// instead of starving consensus of CPU; Result.GetsPerSec / ScansPerSec
	// report the sustained rates.
	StateReaders int
	// Subscribers attaches a client API server to node 0 and that many
	// streaming block subscriptions over in-memory pipes (Server.ServeConn +
	// Attach, so the file-descriptor limit never bounds the count). Every
	// subscriber starts at genesis — replaying through the fan-out hub's
	// shared cohorts, then riding its live tier — and the Fan* Result fields
	// report the hub counters and delivery lag over the measured window.
	Subscribers int
	// SubscriberFilter gives every subscriber a distinct one-byte tx-prefix
	// filter (subscriber i filters on byte i%256), exercising the wire-1.3
	// server-side filter path under fan-out load.
	SubscriberFilter bool
	// SubscriberStall adds one deliberately stalled subscriber (it
	// subscribes, then never drains) on top of Subscribers. The hub must
	// park and demote it to a replay cohort without raising the healthy
	// subscribers' delivery lag.
	SubscriberStall bool
}

func (o *Options) fill() {
	if o.N == 0 {
		o.N = 4
	}
	if o.StateKeys == 0 {
		o.StateKeys = 5000
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
	// DefiniteBlocks is the total number of definite blocks measured.
	DefiniteBlocks uint64
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
	// GetsPerSec / ScansPerSec are the state-read rates the StateReaders
	// loops sustained against node 0 during the measured window (0 when no
	// backend or no readers were configured).
	GetsPerSec  float64
	ScansPerSec float64
	// Snapshot-transfer totals, cluster-wide and cumulative over the whole
	// run (rescues are rare whole-run events, not windowed rates): chunks
	// served by donors, chunks and bytes fetched by restoring nodes, resumed
	// transfers, snapshots rejected by verification, and completed installs.
	// A campaign that strands a node asserts SnapInstalls > 0 — the rescue
	// actually ran over the transfer protocol instead of silently
	// range-syncing.
	SnapChunksServed  uint64
	SnapChunksFetched uint64
	SnapBytesFetched  uint64
	SnapResumes       uint64
	SnapRejected      uint64
	SnapInstalls      uint64
	// Fan-out subsystem measurements (Options.Subscribers > 0): node 0's
	// client-API hub counters, cumulative from subscriber attach to window
	// close (a short window can catch the hub fully backpressured and read
	// zero, so these are lifetime totals, not window deltas). The
	// encode-once contract shows up as FanFramesEncoded staying near the
	// number of delivered blocks while FanFramesShared scales with
	// subscribers; FanBytesSent / FanBytesEncoded is the sharing ratio.
	FanFramesEncoded       uint64
	FanFramesShared        uint64
	FanBytesEncoded        uint64
	FanBytesSent           uint64
	FanBlocksFiltered      uint64
	FanCohortReplays       uint64
	FanDemotions           uint64
	FanPromotions          uint64
	FanOverflowDisconnects uint64
	// FanDelivered counts node 0's delivered blocks since attach (the
	// denominator for encodes-per-block); FanDeliveriesPerSec is the total
	// in-window BLOCK-event rate the subscribers absorbed; FanLag is the
	// delivery→receive lag distribution over sampled subscribers.
	FanDelivered        uint64
	FanDeliveriesPerSec float64
	FanLag              *metrics.Histogram
	// Verify-pool batch-path activity, summed over the correct nodes during
	// the measured window (deltas of flcrypto.PoolBatchStats): multi-scalar
	// combinations run, the signatures those combinations resolved
	// (BatchedSigs/Batches is the achieved average batch size), failed
	// combinations that bisected to isolate a forgery, and async misses
	// resolved by one-off verification. All zero under SyncVerify (no pool)
	// or DisableBatchVerify (pool without the batch path).
	VerifyBatches     uint64
	VerifyBatchedSigs uint64
	VerifyBisections  uint64
	VerifySingles     uint64
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

	// Managed state backends (Options.State), torn down after the nodes.
	var stateClosers []func()
	defer func() {
		for _, f := range stateClosers {
			f()
		}
	}()
	openState := func(i int) statemachine.StateBackend {
		switch opts.State {
		case "", "none":
			return nil
		case "map":
			return statemachine.NewKV()
		case "durable":
			dir, err := os.MkdirTemp("", "flbench-state")
			if err != nil {
				panic(err)
			}
			d, err := statemachine.OpenDurable(dir)
			if err != nil {
				panic(err)
			}
			stateClosers = append(stateClosers, func() {
				d.Close()
				os.RemoveAll(dir)
			})
			return d
		default:
			panic(fmt.Sprintf("harness: unknown state backend %q", opts.State))
		}
	}

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
			MaxPending:       opts.MaxPending,
			DisablePiggyback: opts.DisablePiggyback,
			FDThreshold:      opts.FDThreshold,
			GossipBodies:     opts.GossipBodies,
			GossipFanout:     opts.GossipFanout,
			CompressBodies:   opts.CompressBodies,
			ExcludeConvicted: opts.ExcludeConvicted,
			SyncVerify:       opts.SyncVerify,
			State:            openState(i),
		}
		cfg.Source = workload.Saturating(flcrypto.NodeID(i), opts.TxSize, func(s *workload.SaturatingSource) {
			s.SetCompressible(opts.CompressibleLoad)
			if cfg.State != nil {
				s.SetKV(opts.StateKeys)
			}
		})
		if opts.DisableBatchVerify {
			pool := flcrypto.NewVerifyPoolOpts(flcrypto.PoolOptions{DisableBatch: true})
			defer pool.Close()
			cfg.VerifyPool = pool
		}
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

	// State-read load against node 0's replica: each reader alternates 15
	// point gets with one range scan; ops count only inside the window.
	var gets, scans atomic.Uint64
	readersDone := make(chan struct{})
	var readersWG sync.WaitGroup
	if opts.StateReaders > 0 && opts.State != "" && opts.State != "none" {
		for rd := 0; rd < opts.StateReaders; rd++ {
			readersWG.Add(1)
			go func(seed int64) {
				defer readersWG.Done()
				rng := rand.New(rand.NewSource(seed))
				rep := nodes[0].State()
				ticker := time.NewTicker(time.Millisecond)
				defer ticker.Stop()
				for {
					select {
					case <-readersDone:
						return
					case <-ticker.C:
					}
					for i := 0; i < 15; i++ {
						rep.Get(fmt.Sprintf("bench/%08d", rng.Intn(opts.StateKeys)))
						if measuring.Load() {
							gets.Add(1)
						}
					}
					begin := fmt.Sprintf("bench/%08d", rng.Intn(opts.StateKeys))
					rep.Scan(begin, "", 100)
					if measuring.Load() {
						scans.Add(1)
					}
				}
			}(int64(rd) * 7919)
		}
	}
	defer func() {
		close(readersDone)
		readersWG.Wait()
	}()

	// Fan-out load against node 0's client API (Options.Subscribers).
	var rig *fanoutRig
	if opts.Subscribers > 0 {
		rig = attachFanout(nodes[0], opts, &measuring)
		defer rig.stop()
	}

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
	verifyBases := make([]flcrypto.PoolBatchStats, opts.N)
	for _, i := range correct {
		bases[i] = snapshot(nodes[i], opts.Workers)
		msgBases[i] = net.MessagesSent(flcrypto.NodeID(i))
		byteBases[i] = net.BytesSent(flcrypto.NodeID(i))
		verifyBases[i] = nodes[i].VerifyPool().BatchStats()
	}
	poolGets0, poolReuses0 := types.PoolStats()
	start := time.Now()
	time.Sleep(opts.Duration)
	elapsed := time.Since(start).Seconds()
	measuring.Store(false)
	poolGets1, poolReuses1 := types.PoolStats()

	var res Result
	res.Latency = latency
	if rig != nil {
		rig.collect(&res, elapsed)
	}
	res.EncPoolGets = poolGets1 - poolGets0
	res.EncPoolReuses = poolReuses1 - poolReuses0
	if elapsed > 0 {
		res.GetsPerSec = float64(gets.Load()) / elapsed
		res.ScansPerSec = float64(scans.Load()) / elapsed
	}
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
		vs := nodes[i].VerifyPool().BatchStats()
		res.VerifyBatches += vs.Batches - verifyBases[i].Batches
		res.VerifyBatchedSigs += vs.BatchedSigs - verifyBases[i].BatchedSigs
		res.VerifyBisections += vs.Bisections - verifyBases[i].Bisections
		res.VerifySingles += vs.Singles - verifyBases[i].Singles
		res.Convictions += now.convictions
		for w := 0; w < opts.Workers; w++ {
			m := nodes[i].Worker(w).Metrics()
			res.SnapChunksServed += m.SnapChunksServed.Load()
			res.SnapChunksFetched += m.SnapChunksFetched.Load()
			res.SnapBytesFetched += m.SnapBytesFetched.Load()
			res.SnapResumes += m.SnapResumes.Load()
			res.SnapRejected += m.SnapRejected.Load()
			res.SnapInstalls += m.SnapInstalls.Load()
		}
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
		res.DefiniteBlocks = uint64(blocks / nc)
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
