package flo

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/flcrypto"
	"repro/internal/transport"
	"repro/internal/types"
	"repro/internal/workload"
)

// dropWindow drops the messages match selects until its deadline passes.
type dropWindow struct {
	until time.Time
	match func(from, to flcrypto.NodeID, size int) bool
}

func (d *dropWindow) FaultFor(from, to flcrypto.NodeID, size int) transport.Fault {
	return transport.Fault{Drop: time.Now().Before(d.until) && d.match(from, to, size)}
}

func stopAll(net *transport.ChanNetwork, nodes []*Node) {
	for _, n := range nodes {
		n.Stop()
	}
	net.Close()
}

// TestMissedPiggybackProposerStillPushes: node 1 proposes round 2, after
// node 0's round 1. Every body bound for node 1 is lost for the first
// 100 ms, so its 20 ms accept window for round 1 closes first and it votes
// 0 without a piggyback, while the other three decide round 1 at once. Node
// 1 then pulls round 1 and enters its own turn with no block built. Round 2
// must still be node 1's block, not a nil round handed to node 2.
func TestMissedPiggybackProposerStillPushes(t *testing.T) {
	const x = 1
	bodiesToX := &dropWindow{
		until: time.Now().Add(100 * time.Millisecond),
		match: func(_, to flcrypto.NodeID, size int) bool { return to == x && size >= 400 },
	}
	net, nodes := newRawCluster(t, transport.ChanConfig{N: 4, Faults: bodiesToX}, func(i int, cfg *Config) {
		cfg.InitialTimer = 250 * time.Millisecond // a 1 s deadline: time for node 1 to join round 2
		if i == x {
			cfg.InitialTimer = 5 * time.Millisecond // the 20 ms floor
		}
	})
	defer stopAll(net, nodes)
	chain := nodes[0].Worker(0).Chain()
	deadline := time.Now().Add(10 * time.Second)
	for chain.Definite() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("round 2 not definite after 10 s (definite %d)", chain.Definite())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if hdr, _ := chain.HeaderAt(2); hdr.Proposer != x {
		t.Fatalf("round 2 was decided with node %d's block: node %d's own turn was a nil round", hdr.Proposer, x)
	}
}

// TestNilProposalReleasesLease: node 1's first proposal carries five writes
// and decides nil, because everything node 1 sends is lost for the first
// 100 ms. Once its round is definite with another block, the dead proposal
// hands the writes back to its pool, so they commit in a later block of
// node 1 well within a second, not after the pool's 5 s lease.
func TestNilProposalReleasesLease(t *testing.T) {
	const x = 1
	pool := workload.NewPool(5 * time.Second)
	writes := make([]types.Transaction, 5)
	for i := range writes {
		writes[i] = types.Transaction{Client: 9, Seq: uint64(i + 1), Payload: []byte("released")}
		pool.Add(writes[i])
	}
	fromX := &dropWindow{
		until: time.Now().Add(100 * time.Millisecond),
		match: func(from, _ flcrypto.NodeID, _ int) bool { return from == x },
	}
	start := time.Now()
	net, nodes := newRawCluster(t, transport.ChanConfig{N: 4, Faults: fromX}, func(i int, cfg *Config) {
		cfg.InitialTimer = 5 * time.Millisecond
		cfg.Source = nil
		if i == x {
			cfg.Source = func(uint32) core.TxSource { return pool }
		}
	})
	defer stopAll(net, nodes)
	for pool.Committed() < uint64(len(writes)) {
		if time.Since(start) > time.Second {
			t.Fatalf("%d of %d writes committed after 1 s: the nil round kept their lease", pool.Committed(), len(writes))
		}
		time.Sleep(5 * time.Millisecond)
	}
	if hdr, _ := nodes[x].Worker(0).Chain().HeaderAt(2); hdr.Proposer == x {
		t.Fatal("node 1's first proposal was not decided nil; the test did not exercise the release")
	}
}
