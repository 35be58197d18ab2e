package fireledger

import (
	"testing"
	"time"

	"repro/internal/workload"
)

func TestLocalClusterEndToEnd(t *testing.T) {
	cluster, err := NewLocalCluster(4, func(i int, cfg *Config) {
		cfg.Workers = 1
		cfg.BatchSize = 5
		cfg.Source = workload.Saturating(NodeID(i), 32)
	})
	if err != nil {
		t.Fatal(err)
	}
	cluster.Start()
	defer cluster.Stop()

	deadline := time.Now().Add(20 * time.Second)
	for cluster.Node(0).DeliveredBlocks() < 5 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d blocks delivered", cluster.Node(0).DeliveredBlocks())
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Chains agree on the definite prefix.
	minDef := cluster.Node(0).Worker(0).Chain().Definite()
	for i := 1; i < 4; i++ {
		if d := cluster.Node(i).Worker(0).Chain().Definite(); d < minDef {
			minDef = d
		}
	}
	for r := uint64(1); r <= minDef; r++ {
		base, _ := cluster.Node(0).Worker(0).Chain().HeaderAt(r)
		for i := 1; i < 4; i++ {
			hdr, ok := cluster.Node(i).Worker(0).Chain().HeaderAt(r)
			if !ok || hdr.Hash() != base.Hash() {
				t.Fatalf("round %d differs at node %d", r, i)
			}
		}
	}
}

func TestLocalClusterRejectsTinyN(t *testing.T) {
	if _, err := NewLocalCluster(3, nil); err == nil {
		t.Fatal("n=3 accepted (cannot tolerate any Byzantine fault)")
	}
}

func TestClientSubmitPath(t *testing.T) {
	cluster, err := NewLocalCluster(4, func(i int, cfg *Config) {
		cfg.BatchSize = 4
	})
	if err != nil {
		t.Fatal(err)
	}
	cluster.Start()
	defer cluster.Stop()

	for j := 0; j < 12; j++ {
		tx := Transaction{Client: 1, Seq: uint64(j + 1), Payload: []byte{byte(j)}}
		if err := cluster.Node(j % 4).Submit(tx); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(20 * time.Second)
	for cluster.Node(0).Worker(0).Metrics().DefiniteTxs.Load() < 12 {
		if time.Now().After(deadline) {
			t.Fatalf("client txs not finalized: %d/12",
				cluster.Node(0).Worker(0).Metrics().DefiniteTxs.Load())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
