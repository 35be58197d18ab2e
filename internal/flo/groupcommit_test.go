package flo

import (
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/flcrypto"
	"repro/internal/transport"
	"repro/internal/workload"
)

// TestFLOGroupCommitRestart runs a durable cluster — SyncWrites alone must
// yield a group-commit log — restarts it from disk, and checks the definite
// prefix survives and the chain keeps growing: the end-to-end proof that
// batched fsyncs do not weaken the restart path.
func TestFLOGroupCommitRestart(t *testing.T) {
	const n = 4
	ks := flcrypto.MustGenerateKeySet(n, flcrypto.Ed25519)
	dirs := make([]string, n)
	for i := range dirs {
		dirs[i] = filepath.Join(t.TempDir(), fmt.Sprintf("node%d", i))
	}

	boot := func() ([]*Node, *transport.ChanNetwork) {
		net := transport.NewChanNetwork(transport.ChanConfig{N: n})
		nodes := make([]*Node, n)
		for i := 0; i < n; i++ {
			node, err := NewNode(Config{
				Endpoint:     net.Endpoint(flcrypto.NodeID(i)),
				Registry:     ks.Registry,
				Priv:         ks.Privs[i],
				Workers:      1,
				BatchSize:    5,
				Source:       workload.Saturating(flcrypto.NodeID(i), 32),
				DataDir:      dirs[i],
				SyncWrites:   true,
				InitialTimer: 50 * time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			nodes[i] = node
		}
		for _, node := range nodes {
			node.Start()
		}
		return nodes, net
	}
	waitDef := func(nodes []*Node, target uint64, timeout time.Duration) {
		t.Helper()
		deadline := time.Now().Add(timeout)
		for {
			done := true
			for _, node := range nodes {
				if node.Worker(0).Chain().Definite() < target {
					done = false
				}
			}
			if done {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("cluster did not reach definite round %d", target)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	nodes, net := boot()
	waitDef(nodes, 10, 20*time.Second)
	preTips := make([]uint64, n)
	preHashes := make([]flcrypto.Hash, n)
	for i, node := range nodes {
		chain := node.Worker(0).Chain()
		preTips[i] = chain.Definite()
		h, ok := chain.HashAt(10)
		if !ok {
			t.Fatalf("node %d lost round 10", i)
		}
		preHashes[i] = h
	}
	for i, node := range nodes {
		node.Stop()
		// Stop drained the committer: everything persisted went through it.
		stats := node.logs[0].GroupCommitStats()
		if stats.Batches == 0 || stats.Items < preTips[i] {
			t.Fatalf("node %d: SyncWrites log fsynced %d frames in %d batches, want >= %d through group commit",
				i, stats.Items, stats.Batches, preTips[i])
		}
	}
	net.Close()

	nodes, net = boot()
	defer func() {
		for _, node := range nodes {
			node.Stop()
		}
		net.Close()
	}()
	for i, node := range nodes {
		chain := node.Worker(0).Chain()
		// The batched-fsync log must have replayed at least the definite
		// prefix every peer agreed on, byte-identical.
		h, ok := chain.HashAt(10)
		if !ok || h != preHashes[i] {
			t.Fatalf("node %d: round 10 hash changed across restart", i)
		}
		if err := chain.Audit(ks.Registry); err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
	}
	// And the cluster keeps making progress past the restart point.
	target := preTips[0]
	for _, tip := range preTips {
		if tip > target {
			target = tip
		}
	}
	waitDef(nodes, target+5, 20*time.Second)
}
