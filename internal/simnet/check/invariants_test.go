package check

import (
	"strings"
	"testing"

	"repro/internal/types"
)

// mkBlock builds a minimal distinct block for checker unit tests: the
// payload makes the body (and therefore the block hash) unique.
func mkBlock(round uint64, payload string) types.Block {
	body := types.Body{Txs: []types.Transaction{{Client: 1, Seq: round, Payload: []byte(payload)}}}
	return types.Block{
		Signed: types.SignedHeader{Header: types.BlockHeader{Round: round, BodyHash: body.Hash()}},
		Body:   body,
	}
}

// The checker is the oracle every simulated run trusts; these tests make
// sure it is not vacuous — each invariant class trips on a synthetic
// violation and stays silent on the corresponding clean history.

func TestCheckerFlagsConflictingDelivery(t *testing.T) {
	c := NewChecker(4, nil)
	c.OnDeliver(0, 0, mkBlock(1, "a"))
	c.OnDeliver(1, 0, mkBlock(1, "a"))
	if v := c.Violations(); len(v) != 0 {
		t.Fatalf("identical deliveries flagged: %v", v)
	}
	c.OnDeliver(2, 0, mkBlock(1, "CONFLICT"))
	v := c.Violations()
	if len(v) != 1 || !strings.Contains(v[0], "agreement violation") {
		t.Fatalf("conflicting delivery not flagged: %v", v)
	}
}

func TestCheckerIgnoresByzantineDeliveries(t *testing.T) {
	c := NewChecker(4, []int{3})
	c.OnDeliver(0, 0, mkBlock(1, "a"))
	c.OnDeliver(3, 0, mkBlock(1, "byzantine-divergence"))
	if v := c.Violations(); len(v) != 0 {
		t.Fatalf("byzantine node's local state asserted: %v", v)
	}
}

func TestCheckerFlagsGapAndDuplicate(t *testing.T) {
	c := NewChecker(4, nil)
	c.OnDeliver(0, 0, mkBlock(1, "a"))
	c.OnDeliver(0, 0, mkBlock(2, "b"))
	c.OnDeliver(0, 0, mkBlock(4, "d")) // skipped round 3
	v := c.Violations()
	if len(v) != 1 || !strings.Contains(v[0], "delivery order violation") {
		t.Fatalf("gap not flagged: %v", v)
	}
	c.OnDeliver(1, 0, mkBlock(1, "a"))
	c.OnDeliver(1, 0, mkBlock(1, "a")) // duplicate
	if v := c.Violations(); len(v) != 2 {
		t.Fatalf("duplicate delivery not flagged: %v", v)
	}
}

func TestCheckerRestartResetsCursorNotHistory(t *testing.T) {
	c := NewChecker(4, nil)
	c.OnDeliver(0, 0, mkBlock(1, "a"))
	c.OnDeliver(0, 0, mkBlock(2, "b"))
	c.ResetNode(0)
	// A stateless restart legitimately re-delivers from round 1...
	c.OnDeliver(0, 0, mkBlock(1, "a"))
	c.OnDeliver(0, 0, mkBlock(2, "b"))
	if v := c.Violations(); len(v) != 0 {
		t.Fatalf("restart re-delivery flagged: %v", v)
	}
	// ...but the slot hashes stay binding across incarnations.
	c.ResetNode(0)
	c.OnDeliver(0, 0, mkBlock(1, "REWRITTEN"))
	v := c.Violations()
	if len(v) != 1 || !strings.Contains(v[0], "agreement violation") {
		t.Fatalf("post-restart history rewrite not flagged: %v", v)
	}
}

func TestCheckerTracksWorkersIndependently(t *testing.T) {
	c := NewChecker(4, nil)
	c.OnDeliver(0, 0, mkBlock(1, "w0r1"))
	c.OnDeliver(0, 1, mkBlock(1, "w1r1"))
	c.OnDeliver(0, 0, mkBlock(2, "w0r2"))
	c.OnDeliver(0, 1, mkBlock(2, "w1r2"))
	if v := c.Violations(); len(v) != 0 {
		t.Fatalf("independent worker streams flagged: %v", v)
	}
	if _, ok := c.HashAt(1, 2); !ok {
		t.Fatal("worker-1 slot not recorded")
	}
}

// TestCheckerAckedWrites: an acked write is owed until it is both in the
// definite log and delivered at the node that acked it; a repeat inclusion
// is counted, not flagged; another payload under its identity is flagged; a
// crash of the acking node excuses what it had not delivered.
func TestCheckerAckedWrites(t *testing.T) {
	c := NewChecker(4, nil)
	write := func(seq uint64) types.Transaction {
		return types.Transaction{Client: 1, Seq: seq, Payload: []byte("acked")}
	}
	c.NoteAck(2, write(1))
	c.NoteAck(2, write(2))
	c.NoteAck(3, write(9))
	if owed, _ := c.OwedWrites(); len(owed) != 3 {
		t.Fatalf("owed before any delivery: %v", owed)
	}
	c.OnDeliver(0, 0, mkBlock(1, "acked")) // carries (1, 1), seen by node 0 only
	if owed, _ := c.OwedWrites(); len(owed) != 3 {
		t.Fatalf("a write delivered elsewhere but not at its acking node is still owed a receipt: %v", owed)
	}
	c.OnDeliver(2, 0, mkBlock(1, "acked"))
	c.OnDeliver(2, 0, mkBlock(2, "acked"))
	owed, repeats := c.OwedWrites()
	if len(owed) != 1 || !strings.Contains(owed[0], "seq 9") || repeats != 0 {
		t.Fatalf("owed %v repeats %d, want only seq 9 owed", owed, repeats)
	}
	// The same write in a second block: at-least-once inclusion.
	again := mkBlock(3, "x")
	again.Body.Txs = []types.Transaction{write(2)}
	c.OnDeliver(2, 0, again)
	if _, repeats := c.OwedWrites(); repeats != 1 {
		t.Fatalf("repeat inclusions = %d, want 1", repeats)
	}
	if v := c.Violations(); len(v) != 0 {
		t.Fatalf("clean history flagged: %v", v)
	}
	c.OnDeliver(0, 0, mkBlock(2, "FORGED")) // agreement violation too; look for ours
	found := false
	for _, v := range c.Violations() {
		found = found || strings.Contains(v, "receipt violation")
	}
	if !found {
		t.Fatalf("a different payload under an acked identity was not flagged: %v", c.Violations())
	}
	c.ResetNode(3)
	if owed, _ := c.OwedWrites(); len(owed) != 0 {
		t.Fatalf("a crashed node's undelivered acks are still owed: %v", owed)
	}
}
