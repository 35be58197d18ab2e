package flo

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/flcrypto"
	"repro/internal/transport"
	"repro/internal/types"
	"repro/internal/workload"
)

// assertAgreement checks that all listed nodes agree on their common
// definite prefix of worker w and that each chain audits clean.
func (c *cluster) assertAgreement(who []int, w int) {
	c.t.Helper()
	ref := c.nodes[who[0]].Worker(w).Chain()
	for _, i := range who[1:] {
		chain := c.nodes[i].Worker(w).Chain()
		upTo := chain.Definite()
		if ref.Definite() < upTo {
			upTo = ref.Definite()
		}
		for r := uint64(1); r <= upTo; r++ {
			a, _ := ref.HeaderAt(r)
			b, _ := chain.HeaderAt(r)
			if a.Hash() != b.Hash() {
				c.t.Fatalf("definite round %d differs between node %d and node %d", r, who[0], i)
			}
		}
	}
	for _, i := range who {
		if err := c.nodes[i].Worker(w).Chain().Audit(c.ks.Registry); err != nil {
			c.t.Fatalf("node %d audit: %v", i, err)
		}
	}
}

// newRawCluster builds and starts a cluster of ccfg.N nodes on a network
// built from ccfg, without registering cleanup — for tests that tear down
// and rebuild within one test body, or stop the cluster themselves.
func newRawCluster(t *testing.T, ccfg transport.ChanConfig, tweak func(i int, cfg *Config)) (*transport.ChanNetwork, []*Node) {
	t.Helper()
	n := ccfg.N
	ks := flcrypto.MustGenerateKeySet(n, flcrypto.Ed25519)
	net := transport.NewChanNetwork(ccfg)
	nodes := make([]*Node, n)
	for i := 0; i < n; i++ {
		cfg := Config{
			Endpoint:     net.Endpoint(flcrypto.NodeID(i)),
			Registry:     ks.Registry,
			Priv:         ks.Privs[i],
			Workers:      1,
			BatchSize:    10,
			Source:       workload.Saturating(flcrypto.NodeID(i), 64),
			InitialTimer: 50 * time.Millisecond,
			ViewTimeout:  300 * time.Millisecond,
		}
		if tweak != nil {
			tweak(i, &cfg)
		}
		node, err := NewNode(cfg)
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = node
	}
	for _, node := range nodes {
		node.Start()
	}
	return net, nodes
}

// TestClusterWithGossipBodies replaces the clique body overlay with
// push-gossip (§7.2.2) and checks the protocol still finalizes and agrees.
// The network carries single-DC latency so the simulated cluster paces like
// a real one instead of sprinting ahead of the gossip spread (on a
// zero-latency in-process net, the quorum outruns any node the rumor
// misses — the paper's "improves throughput but not latency" trade).
func TestClusterWithGossipBodies(t *testing.T) {
	net, nodes := newRawCluster(t, transport.ChanConfig{N: 4, Latency: transport.SingleDC()}, func(i int, cfg *Config) {
		cfg.GossipBodies = true
		cfg.GossipFanout = 2 // sparse on purpose: exercises the pull fallback
		cfg.BatchSize = 5
	})
	defer func() {
		for _, node := range nodes {
			node.Stop()
		}
		net.Close()
	}()
	deadline := time.Now().Add(60 * time.Second)
	for {
		done := true
		for _, node := range nodes {
			if node.Worker(0).Chain().Definite() < 12 {
				done = false
				break
			}
		}
		if done {
			break
		}
		if time.Now().After(deadline) {
			var have []uint64
			for _, node := range nodes {
				have = append(have, node.Worker(0).Chain().Definite())
			}
			t.Fatalf("gossip cluster stalled: definite = %v", have)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Agreement on the common definite prefix.
	ref := nodes[0].Worker(0).Chain()
	for i, node := range nodes[1:] {
		chain := node.Worker(0).Chain()
		upTo := chain.Definite()
		if ref.Definite() < upTo {
			upTo = ref.Definite()
		}
		for r := uint64(1); r <= upTo; r++ {
			a, _ := ref.HeaderAt(r)
			b, _ := chain.HeaderAt(r)
			if a.Hash() != b.Hash() {
				t.Fatalf("definite round %d differs at node %d", r, i+1)
			}
		}
	}
}

// TestClusterWithCompressedBodies turns on body compression with highly
// compressible transaction payloads and checks agreement plus actual
// byte savings on the wire.
func TestClusterWithCompressedBodies(t *testing.T) {
	run := func(compress bool) uint64 {
		net, nodes := newRawCluster(t, transport.ChanConfig{N: 4}, func(i int, cfg *Config) {
			cfg.CompressBodies = compress
			cfg.BatchSize = 20
			cfg.Source = nil // client pool: we control payload content
		})
		// Feed every node compressible transactions.
		payload := bytes.Repeat([]byte("compressible-ledger-entry "), 40) // ~1 KiB
		stop := make(chan struct{})
		go func() {
			seq := uint64(0)
			for {
				select {
				case <-stop:
					return
				default:
				}
				seq++
				for _, node := range nodes {
					node.Submit(types.Transaction{Client: 7, Seq: seq, Payload: payload})
				}
				time.Sleep(time.Millisecond)
			}
		}()
		deadline := time.Now().Add(30 * time.Second)
		for nodes[0].Worker(0).Chain().Definite() < 10 {
			if time.Now().After(deadline) {
				t.Fatalf("cluster (compress=%v) stalled at definite %d", compress, nodes[0].Worker(0).Chain().Definite())
			}
			time.Sleep(5 * time.Millisecond)
		}
		close(stop)
		var total uint64
		for i := range nodes {
			total += net.BytesSent(nodes[i].ID())
		}
		for _, node := range nodes {
			node.Stop()
		}
		net.Close()
		return total
	}
	plain := run(false)
	packed := run(true)
	if packed >= plain {
		t.Fatalf("compression did not reduce wire bytes: %d (compressed) vs %d (plain)", packed, plain)
	}
	t.Logf("wire bytes to 10 definite rounds: plain=%d compressed=%d (ratio %.2f)",
		plain, packed, float64(packed)/float64(plain))
}
