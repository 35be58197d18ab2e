package fireledger

import (
	"net"
	"testing"
	"time"

	"repro/internal/flcrypto"
	"repro/internal/transport"
	"repro/internal/workload"
)

// TestTCPClusterEndToEnd runs a full 4-node FLO cluster over real loopback
// TCP sockets — the cmd/fireledger deployment path — and checks that blocks
// finalize and the chains agree.
func TestTCPClusterEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("opens real sockets")
	}
	const n = 4
	// Reserve loopback ports.
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		ln.Close()
	}

	ks, err := flcrypto.GenerateKeySet(n, flcrypto.Ed25519,
		flcrypto.NewDeterministicReader("tcp-test"))
	if err != nil {
		t.Fatal(err)
	}

	nodes := make([]*Node, n)
	for i := 0; i < n; i++ {
		ep, err := transport.NewTCPEndpoint(transport.TCPConfig{
			ID:    flcrypto.NodeID(i),
			Addrs: addrs,
		})
		if err != nil {
			t.Fatal(err)
		}
		node, err := NewNode(Config{
			Endpoint:     ep,
			Registry:     ks.Registry,
			Priv:         ks.Privs[i],
			Workers:      1,
			BatchSize:    10,
			Source:       workload.Saturating(NodeID(i), 64),
			InitialTimer: 200 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
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

	deadline := time.Now().Add(60 * time.Second)
	for {
		minDef := nodes[0].Worker(0).Chain().Definite()
		for _, node := range nodes[1:] {
			if d := node.Worker(0).Chain().Definite(); d < minDef {
				minDef = d
			}
		}
		if minDef >= 8 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("TCP cluster stalled at %d definite rounds", minDef)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Agreement over TCP.
	for r := uint64(1); r <= 8; r++ {
		base, ok := nodes[0].Worker(0).Chain().HeaderAt(r)
		if !ok {
			t.Fatalf("node 0 missing round %d", r)
		}
		for i, node := range nodes[1:] {
			hdr, ok := node.Worker(0).Chain().HeaderAt(r)
			if !ok || hdr.Hash() != base.Hash() {
				t.Fatalf("round %d differs at node %d", r, i+1)
			}
		}
	}
}

// TestDeterministicKeyDerivation checks the demo-PKI property cmd/fireledger
// relies on: every process deriving from the same seed gets the same key
// set, and different seeds get different keys.
func TestDeterministicKeyDerivation(t *testing.T) {
	a, err := flcrypto.GenerateKeySet(4, flcrypto.Ed25519, flcrypto.NewDeterministicReader("seed-1"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := flcrypto.GenerateKeySet(4, flcrypto.Ed25519, flcrypto.NewDeterministicReader("seed-1"))
	if err != nil {
		t.Fatal(err)
	}
	c, err := flcrypto.GenerateKeySet(4, flcrypto.Ed25519, flcrypto.NewDeterministicReader("seed-2"))
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("cross-process check")
	sig, err := a.Privs[2].Sign(msg)
	if err != nil {
		t.Fatal(err)
	}
	if !b.Registry.Verify(2, msg, sig) {
		t.Fatal("same seed produced different keys")
	}
	if c.Registry.Verify(2, msg, sig) {
		t.Fatal("different seeds produced the same keys")
	}
}
