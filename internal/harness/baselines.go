package harness

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/flcrypto"
	"repro/internal/hotstuff"
	"repro/internal/metrics"
	"repro/internal/pbft"
	"repro/internal/transport"
	"repro/internal/types"
	"repro/internal/workload"
)

const (
	protoHotStuff transport.ProtoID = 40
	protoPBFT     transport.ProtoID = 41
)

// RunHotStuff measures a chained-HotStuff cluster under the same load model
// and network as RunFLO — the Fig 16 baseline.
func RunHotStuff(opts Options) Result {
	opts.fill()
	ks := flcrypto.MustGenerateKeySet(opts.N, flcrypto.Ed25519)
	net := transport.NewChanNetwork(transport.ChanConfig{
		N:                 opts.N,
		Latency:           opts.Latency,
		EgressBytesPerSec: opts.EgressBytesPerSec,
	})
	defer net.Close()

	latency := metrics.NewHistogram(0)
	var measuring atomic.Bool
	var proposedAt sync.Map // hash -> time.Time (node 0's own proposals)

	replicas := make([]*hotstuff.Replica, opts.N)
	muxes := make([]*transport.Mux, opts.N)
	for i := 0; i < opts.N; i++ {
		mux := transport.NewMux(net.Endpoint(flcrypto.NodeID(i)))
		muxes[i] = mux
		cfg := hotstuff.Config{
			Mux:       mux,
			Proto:     protoHotStuff,
			Registry:  ks.Registry,
			Priv:      ks.Privs[i],
			Pool:      workload.NewSaturatingSource(opts.TxSize, uint64(i), int64(i+1)),
			BatchSize: opts.Batch,
		}
		if i == 0 {
			cfg.OnPropose = func(hash flcrypto.Hash) { proposedAt.Store(hash, time.Now()) }
			cfg.Deliver = func(blk *hotstuff.Block) {
				if !measuring.Load() {
					return
				}
				if t0, ok := proposedAt.Load(blk.Hash()); ok {
					latency.Observe(time.Since(t0.(time.Time)))
				}
			}
		}
		replicas[i] = hotstuff.NewReplica(cfg)
	}
	for i := range replicas {
		muxes[i].Start()
		replicas[i].Start()
	}
	defer func() {
		for i := range replicas {
			replicas[i].Stop()
			muxes[i].Stop()
		}
	}()

	time.Sleep(opts.Warmup)
	measuring.Store(true)
	m0 := replicas[0].Metrics()
	baseTxs, baseBlocks := m0.CommittedTxs.Load(), m0.Committed.Load()
	start := time.Now()
	time.Sleep(opts.Duration)
	elapsed := time.Since(start).Seconds()
	measuring.Store(false)

	var res Result
	res.Latency = latency
	if elapsed > 0 {
		res.TPS = float64(m0.CommittedTxs.Load()-baseTxs) / elapsed
		res.BPS = float64(m0.Committed.Load()-baseBlocks) / elapsed
		res.SignOpsPerBlock = safeDiv(float64(m0.SignOps.Load()), float64(m0.Committed.Load()))
	}
	return res
}

// RunPBFT measures the PBFT ordering service under client load — the
// BFT-SMaRt stand-in of Fig 17. A driver submits σ-byte transactions,
// keeping a bounded number outstanding (a closed-loop client population).
func RunPBFT(opts Options) Result {
	opts.fill()
	ks := flcrypto.MustGenerateKeySet(opts.N, flcrypto.Ed25519)
	net := transport.NewChanNetwork(transport.ChanConfig{
		N:                 opts.N,
		Latency:           opts.Latency,
		EgressBytesPerSec: opts.EgressBytesPerSec,
	})
	defer net.Close()

	latency := metrics.NewHistogram(0)
	var measuring atomic.Bool
	var submittedAt sync.Map // digest -> time
	var delivered atomic.Uint64

	replicas := make([]*pbft.Replica, opts.N)
	muxes := make([]*transport.Mux, opts.N)
	for i := 0; i < opts.N; i++ {
		mux := transport.NewMux(net.Endpoint(flcrypto.NodeID(i)))
		muxes[i] = mux
		cfg := pbft.Config{
			Mux:       mux,
			Proto:     protoPBFT,
			Registry:  ks.Registry,
			Priv:      ks.Privs[i],
			BatchSize: opts.Batch,
		}
		if i == 0 {
			cfg.Deliver = func(seq uint64, batch [][]byte) {
				delivered.Add(uint64(len(batch)))
				if !measuring.Load() {
					return
				}
				for _, req := range batch {
					if t0, ok := submittedAt.Load(flcrypto.Sum256(req)); ok {
						latency.Observe(time.Since(t0.(time.Time)))
					}
				}
			}
		}
		replicas[i] = pbft.NewReplica(cfg)
	}
	for i := range replicas {
		muxes[i].Start()
		replicas[i].Start()
	}
	defer func() {
		for i := range replicas {
			replicas[i].Stop()
			muxes[i].Stop()
		}
	}()

	// Closed-loop driver: keep a few batches outstanding at node 0.
	// Transactions are packed several to a request, as BFT-SMaRt's real
	// clients do — per-transaction requests would measure the envelope
	// signature cost, not the ordering protocol.
	pack := opts.Batch / 8
	if pack < 1 {
		pack = 1
	}
	stopDriver := make(chan struct{})
	var driverWG sync.WaitGroup
	driverWG.Add(1)
	go func() {
		defer driverWG.Done()
		gen := workload.NewGenerator(opts.TxSize, 9000, 42)
		var sent uint64
		for {
			select {
			case <-stopDriver:
				return
			default:
			}
			if sent > delivered.Load()+uint64(4*opts.Batch/pack) {
				time.Sleep(200 * time.Microsecond)
				continue
			}
			e := types.NewEncoder(pack * (opts.TxSize + 24))
			for k := 0; k < pack; k++ {
				tx := gen.Next()
				tx.Encode(e)
			}
			req := e.Bytes()
			if measuring.Load() {
				submittedAt.Store(flcrypto.Sum256(req), time.Now())
			}
			if err := replicas[0].Submit(req); err != nil {
				return
			}
			sent++
		}
	}()
	defer func() {
		close(stopDriver)
		driverWG.Wait()
	}()

	time.Sleep(opts.Warmup)
	measuring.Store(true)
	m0 := replicas[0].Metrics()
	baseTxs, baseBlocks := m0.RequestsDelivered.Load(), m0.BatchesDelivered.Load()
	start := time.Now()
	time.Sleep(opts.Duration)
	elapsed := time.Since(start).Seconds()
	measuring.Store(false)

	var res Result
	res.Latency = latency
	if elapsed > 0 {
		res.TPS = float64(m0.RequestsDelivered.Load()-baseTxs) / elapsed * float64(pack)
		res.BPS = float64(m0.BatchesDelivered.Load()-baseBlocks) / elapsed
		res.SignOpsPerBlock = safeDiv(float64(m0.SignOps.Load()), float64(m0.BatchesDelivered.Load()))
	}
	return res
}
