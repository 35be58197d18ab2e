package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/clientapi"
	"repro/internal/flcrypto"
	"repro/internal/statemachine"
	"repro/internal/store"
	"repro/internal/types"
)

// Layer probes time the public functions of the layers a node hides behind
// its consensus loop, on inputs shaped like the workloads': what one call
// costs with nothing else running. They ride along with the traced pass.

// probeBudget is how long each probe loops.
const probeBudget = 150 * time.Millisecond

// perOp runs fn repeatedly for the probe budget and returns µs per call.
func perOp(fn func()) float64 {
	fn() // warm caches and lazy set-up
	start := time.Now()
	n := 0
	for time.Since(start) < probeBudget {
		fn()
		n++
	}
	return float64(time.Since(start).Microseconds()) / float64(n)
}

// probeTxs returns n random σ-byte transactions.
func probeTxs(rng *rand.Rand, n int) []types.Transaction {
	txs := make([]types.Transaction, n)
	for i := range txs {
		txs[i] = types.Transaction{Client: 7, Seq: uint64(i + 1), Payload: make([]byte, payloadSize)}
		rng.Read(txs[i].Payload)
	}
	return txs
}

// probeChain builds a valid chain of n blocks of beta transactions each.
func probeChain(rng *rand.Rand, ks *flcrypto.KeySet, n, beta int) ([]types.Block, error) {
	chain := make([]types.Block, 0, n)
	prev := types.GenesisHeader(0).Hash()
	for r := 1; r <= n; r++ {
		proposer := flcrypto.NodeID(r % clusterSize)
		blk, err := types.NewBlock(0, uint64(r), proposer, prev, probeTxs(rng, beta), ks.Privs[proposer])
		if err != nil {
			return nil, err
		}
		chain = append(chain, blk)
		prev = blk.Hash()
	}
	return chain, nil
}

// runProbes returns the probe metrics; dir is scratch space for the store
// probes (on the same disk as the workloads' data dirs).
func runProbes(seed int64, dir string) (map[string]float64, error) {
	m := make(map[string]float64)
	rng := rand.New(rand.NewSource(seed))
	ks, err := flcrypto.GenerateKeySet(clusterSize, flcrypto.Ed25519, flcrypto.NewDeterministicReader("probe"))
	if err != nil {
		return nil, err
	}

	// flcrypto: one signature, one verification, a batch of 64.
	msg := make([]byte, 160) // about a signed header
	rng.Read(msg)
	priv, pub := ks.Privs[0], ks.Privs[0].Public()
	sig, err := priv.Sign(msg)
	if err != nil {
		return nil, err
	}
	m["flcrypto.sign_us"] = perOp(func() { priv.Sign(msg) })
	m["flcrypto.verify_single_us"] = perOp(func() { pub.Verify(msg, sig) })
	pubs := make([]flcrypto.PublicKey, 64)
	msgs := make([][]byte, 64)
	sigs := make([]flcrypto.Signature, 64)
	for i := range pubs {
		k := ks.Privs[i%clusterSize]
		msgs[i] = make([]byte, 160)
		rng.Read(msgs[i])
		pubs[i] = k.Public()
		if sigs[i], err = k.Sign(msgs[i]); err != nil {
			return nil, err
		}
	}
	m["flcrypto.verify_batch64_us_per_sig"] = perOp(func() { flcrypto.VerifyBatch(pubs, msgs, sigs) }) / 64

	// types: sat512's block (β=1000, σ=512). Literal bodies carry no memo,
	// so every call encodes or hashes afresh.
	full, err := types.NewBlock(0, 1, 0, types.GenesisHeader(0).Hash(), probeTxs(rng, 1000), ks.Privs[0])
	if err != nil {
		return nil, err
	}
	fresh := types.Block{Signed: full.Signed, Body: types.Body{Txs: full.Body.Txs}}
	m["types.block_encode_us"] = perOp(func() {
		e := types.GetEncoder(fresh.Body.Size() + 256)
		fresh.Encode(e)
		e.Release()
	})
	enc := types.NewEncoder(full.Body.Size() + 256)
	full.Encode(enc)
	m["types.block_decode_us"] = perOp(func() { types.DecodeBlock(types.NewDecoder(enc.Bytes())) })
	m["types.body_hash_us"] = perOp(func() { fresh.Body.Hash() })

	// store: kv4's blocks (β=100, σ=512) through the public log API.
	chain, err := probeChain(rng, ks, 256, 100)
	if err != nil {
		return nil, err
	}
	appendAll := func(name string, opts store.Options, async bool) (*store.BlockLog, time.Duration, error) {
		opts.Registry = ks.Registry
		log, _, err := store.Open(filepath.Join(dir, name), opts)
		if err != nil {
			return nil, 0, err
		}
		start := time.Now()
		var waits []func() error
		for _, blk := range chain {
			if !async {
				if err := log.Append(blk); err != nil {
					return nil, 0, err
				}
				continue
			}
			wait, err := log.AppendAsync(blk)
			if err != nil {
				return nil, 0, err
			}
			waits = append(waits, wait)
		}
		for _, wait := range waits {
			if err := wait(); err != nil {
				return nil, 0, err
			}
		}
		return log, time.Since(start), nil
	}
	perBlock := func(d time.Duration) float64 { return float64(d.Microseconds()) / float64(len(chain)) }

	log, took, err := appendAll("append.log", store.Options{}, false)
	if err != nil {
		return nil, fmt.Errorf("store probe: %w", err)
	}
	m["store.append_us"] = perBlock(took)
	start := time.Now()
	got, err := log.ReadFrom(1, len(chain))
	if err != nil || len(got) != len(chain) {
		return nil, fmt.Errorf("store probe: read %d of %d blocks: %v", len(got), len(chain), err)
	}
	m["store.read_blocks_per_s"] = float64(len(chain)) / time.Since(start).Seconds()
	log.Close()

	// Disk-dependent, reported but never gated: fsync per append, and the
	// batch size group commit reaches with a pipelined appender.
	log, took, err = appendAll("sync.log", store.Options{Sync: true}, false)
	if err != nil {
		return nil, fmt.Errorf("store probe: %w", err)
	}
	m["store.append_sync_us"] = perBlock(took)
	log.Close()
	log, _, err = appendAll("group.log", store.Options{Sync: true, GroupCommit: true}, true)
	if err != nil {
		return nil, fmt.Errorf("store probe: %w", err)
	}
	m["store.group_commit_mean"] = log.GroupCommitStats().Mean()
	log.Close()

	if m["clientapi.hub.probe_blocks_per_s_64subs"], err = probeHub(chain); err != nil {
		return nil, fmt.Errorf("hub probe: %w", err)
	}
	return m, nil
}

// hubNode is the clientapi.Node the hub probe serves: a fixed chain handed to
// the server's delivery taps, with history readable like a real node's.
type hubNode struct {
	mu    sync.Mutex
	taps  []func(uint32, types.Block)
	chain []types.Block // delivered so far
}

func (n *hubNode) ID() flcrypto.NodeID            { return 0 }
func (n *hubNode) N() int                         { return clusterSize }
func (n *hubNode) Workers() int                   { return 1 }
func (n *hubNode) Submit(types.Transaction) error { return fmt.Errorf("probe node takes no writes") }
func (n *hubNode) RegisterClient(uint64) error    { return nil }
func (n *hubNode) UnregisterClient(uint64)        {}
func (n *hubNode) DeliveredTxs() uint64           { return 0 }
func (n *hubNode) PoolPending() int               { return 0 }
func (n *hubNode) DeliveredBlocks() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return uint64(len(n.chain))
}
func (n *hubNode) SubscribeDeliver(fn func(uint32, types.Block)) func() {
	n.mu.Lock()
	n.taps = append(n.taps, fn)
	n.mu.Unlock()
	return func() {}
}
func (n *hubNode) ReadDefinite(_ uint32, from uint64, max int) ([]types.Block, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if from == 0 || from > uint64(len(n.chain)) {
		return nil, nil
	}
	end := min(int(from)-1+max, len(n.chain))
	return append([]types.Block(nil), n.chain[from-1:end]...), nil
}
func (n *hubNode) StateGet(context.Context, string, uint32, uint64) ([]byte, bool, error) {
	return nil, false, statemachine.ErrNoState
}
func (n *hubNode) StateScan(context.Context, string, string, int, uint32, uint64) ([]statemachine.Entry, error) {
	return nil, statemachine.ErrNoState
}
func (n *hubNode) StateWatch(context.Context, string, uint32, uint64) (<-chan statemachine.KeyUpdate, func(), error) {
	return nil, nil, statemachine.ErrNoState
}

// probeHub attaches 64 subscribers to a client API server over in-memory
// pipes and measures how many blocks per second all of them receive.
func probeHub(chain []types.Block) (float64, error) {
	const subs = 64
	node := &hubNode{}
	srv := clientapi.NewServer(node, clientapi.ServerOptions{})
	defer srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	var wg sync.WaitGroup
	errs := make(chan error, subs)
	for i := 0; i < subs; i++ {
		a, b := net.Pipe()
		if err := srv.ServeConn(a); err != nil {
			return 0, err
		}
		c, err := clientapi.Attach(b, verifyClientBase+100+uint64(i), clientapi.DialOptions{})
		if err != nil {
			return 0, err
		}
		defer c.Close()
		events, err := c.Subscribe(ctx, clientapi.Cursor{})
		if err != nil {
			return 0, err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := 0
			for ev := range events {
				if ev.Err != nil {
					errs <- ev.Err
					return
				}
				if got++; got == len(chain) {
					return
				}
			}
			errs <- fmt.Errorf("stream ended after %d of %d blocks", got, len(chain))
		}()
	}

	start := time.Now()
	for _, blk := range chain {
		node.mu.Lock()
		node.chain = append(node.chain, blk)
		taps := node.taps
		node.mu.Unlock()
		for _, tap := range taps {
			tap(0, blk)
		}
	}
	wg.Wait()
	took := time.Since(start)
	select {
	case err := <-errs:
		return 0, err
	default:
	}
	return float64(len(chain)) / took.Seconds(), nil
}
