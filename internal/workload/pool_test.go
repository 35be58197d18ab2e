package workload

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/types"
)

func mkTx(client, seq uint64, payload string) types.Transaction {
	return types.Transaction{Client: client, Seq: seq, Payload: []byte(payload)}
}

// TestPoolResubmitAfterCommitDropped: a committed (client, seq) is not
// queued again, on the node that served it and on a node that only saw it in
// a block.
func TestPoolResubmitAfterCommitDropped(t *testing.T) {
	serving, other := NewPool(time.Hour), NewPool(time.Hour)
	tx := mkTx(7, 100, "a")
	serving.Add(tx)
	block := serving.NextBatch(10)
	serving.MarkCommitted(block)
	other.MarkCommitted(block)
	for name, p := range map[string]*Pool{"serving": serving, "other": other} {
		p.Add(tx)
		if got := p.NextBatch(10); len(got) != 0 || p.Pending() != 0 {
			t.Fatalf("%s node: committed write re-entered the pool (batch %d, pending %d)", name, len(got), p.Pending())
		}
		if p.Committed() != 1 {
			t.Fatalf("%s node: committed = %d, want 1", name, p.Committed())
		}
	}
	// A second commit of the same write (at-least-once inclusion) is not a
	// second distinct write.
	serving.MarkCommitted(block)
	if serving.Committed() != 1 {
		t.Fatalf("repeat inclusion counted twice: %d", serving.Committed())
	}
}

// TestPoolExpiredLeaseRequeuesOnce: an expired lease puts its writes back
// exactly once, and a late commit of the original block retires the copy
// that went back.
func TestPoolExpiredLeaseRequeuesOnce(t *testing.T) {
	p := NewPool(10 * time.Millisecond)
	p.Add(mkTx(1, 1, "a"))
	p.Add(mkTx(1, 2, "b"))
	first := p.NextBatch(10)
	if len(first) != 2 {
		t.Fatalf("leased %d, want 2", len(first))
	}
	time.Sleep(20 * time.Millisecond)
	again := p.NextBatch(1)
	if len(again) != 1 || again[0].Seq != 1 {
		t.Fatalf("expired lease re-queued %v, want seq 1 first", again)
	}
	if p.Pending() != 2 {
		t.Fatalf("pending = %d after re-queue, want 2 (no duplicate)", p.Pending())
	}
	// The block that carried the first lease decides after all.
	p.MarkCommitted(first)
	if got := p.NextBatch(10); len(got) != 0 {
		t.Fatalf("late commit left %d re-queued copies proposable", len(got))
	}
	if p.Pending() != 0 || p.Committed() != 2 {
		t.Fatalf("pending %d committed %d, want 0 and 2", p.Pending(), p.Committed())
	}
	time.Sleep(20 * time.Millisecond)
	if got := p.NextBatch(10); len(got) != 0 {
		t.Fatalf("retired lease re-queued %d writes on expiry", len(got))
	}
}

// TestPoolReleaseRequeuesOnce: a released batch goes back to the front of
// the queue at once, and its grant's later expiry does not queue it a second
// time; a commit after the release retires the write; and once a lease has
// expired, releasing that old batch leaves its writes to the grant that now
// holds them.
func TestPoolReleaseRequeuesOnce(t *testing.T) {
	p := NewPool(10 * time.Millisecond)
	for seq := uint64(1); seq <= 3; seq++ {
		p.Add(mkTx(1, seq, "w"))
	}
	first := p.NextBatch(2)
	p.Add(mkTx(1, 4, "w"))
	p.Release(first)
	time.Sleep(20 * time.Millisecond)
	second := p.NextBatch(10)
	if len(second) != 4 || second[0].Seq != 1 || second[1].Seq != 2 || second[2].Seq != 3 || second[3].Seq != 4 {
		t.Fatalf("after release and expiry the batch is %v, want seqs 1..4 once each", second)
	}

	p.Release(second)
	p.MarkCommitted(second[:1])
	third := p.NextBatch(10)
	if len(third) != 3 || third[0].Seq != 2 {
		t.Fatalf("after releasing seqs 1-4 and committing 1 the batch is %v, want seqs 2..4", third)
	}
	time.Sleep(20 * time.Millisecond)
	if got := p.NextBatch(10); len(got) != 3 {
		t.Fatalf("expiry re-queued %v, want seqs 2..4", got)
	}
	p.Release(third)
	if got := p.NextBatch(10); len(got) != 0 {
		t.Fatalf("releasing a batch whose lease expired re-queued %v, which a later grant holds", got)
	}
	if p.Pending() != 3 || p.Committed() != 1 {
		t.Fatalf("pending %d committed %d, want 3 and 1", p.Pending(), p.Committed())
	}
}

// TestPoolForgedIdentityKeepsHonestWrite: a committed (client, seq) whose
// payload differs from the pooled one retires neither a lease nor a queued
// write, and the honest write still commits afterwards.
func TestPoolForgedIdentityKeepsHonestWrite(t *testing.T) {
	p := NewPool(10 * time.Millisecond)
	p.Add(mkTx(9, 1, "leased"))
	honest := p.NextBatch(1)
	p.Add(mkTx(9, 2, "queued"))
	p.MarkCommitted([]types.Transaction{mkTx(9, 1, "forged"), mkTx(9, 2, "forged")})
	if p.Pending() != 2 || p.Committed() != 0 {
		t.Fatalf("forgery moved the pool: pending %d committed %d", p.Pending(), p.Committed())
	}
	time.Sleep(20 * time.Millisecond)
	got := p.NextBatch(10)
	if len(got) != 2 || string(got[0].Payload) != "queued" || string(got[1].Payload) != "leased" {
		t.Fatalf("after the forgery the pool proposes %v, want both honest writes", got)
	}
	p.MarkCommitted(honest)
	p.MarkCommitted(got)
	if p.Pending() != 0 || p.Committed() != 2 {
		t.Fatalf("pending %d committed %d, want 0 and 2", p.Pending(), p.Committed())
	}
}

// TestPoolNewSessionSameClient: a later session of the same client id starts
// from a later clock-seeded base and is accepted next to the first one's
// committed run.
func TestPoolNewSessionSameClient(t *testing.T) {
	p := NewPool(time.Hour)
	base1, base2 := uint64(1_700_000_000_000_000_000), uint64(1_700_000_050_000_000_000)
	for _, base := range []uint64{base1, base2} {
		for i := uint64(1); i <= 3; i++ {
			p.Add(mkTx(5, base+i, "w"))
		}
		batch := p.NextBatch(10)
		if len(batch) != 3 {
			t.Fatalf("session at base %d: leased %d, want 3", base, len(batch))
		}
		p.MarkCommitted(batch)
	}
	if p.Committed() != 6 {
		t.Fatalf("committed = %d, want 6", p.Committed())
	}
	if runs := p.clients[5].committed; len(runs) != 2 {
		t.Fatalf("two sessions left %d runs, want 2: %v", len(runs), runs)
	}
}

// TestPoolBoundedAfterCommit is the regression test for the committed set
// that grew by one entry per write on every node: after a million in-order
// commits from four clients and ten thousand out-of-order ones, what the
// pool retains is a few runs per client.
func TestPoolBoundedAfterCommit(t *testing.T) {
	const clients, perClient, block = 4, 250_000, 1000
	p := NewPool(time.Hour)
	txs := make([]types.Transaction, block)
	for c := uint64(0); c < clients; c++ {
		for base := uint64(0); base < perClient; base += block {
			for i := range txs {
				txs[i] = types.Transaction{Client: c, Seq: 1 + base + uint64(i)}
			}
			p.MarkCommitted(txs)
		}
	}
	retained := func() int {
		n := len(p.pending) + len(p.queue) + len(p.leases)
		for _, c := range p.clients {
			n += 1 + len(c.committed)
		}
		return n
	}
	if got := retained(); got != 2*clients {
		t.Fatalf("after %d in-order commits the pool retains %d entries, want %d", clients*perClient, got, 2*clients)
	}
	// Out of order: the next 10,000 numbers of one client, shuffled (blocks
	// parked by nil rounds commit behind their successors). A remainder of
	// isolated numbers costs one run each until the gaps close.
	rng := rand.New(rand.NewSource(1))
	order := rng.Perm(10_000)
	peak := 0
	for _, s := range order[:9_990] {
		p.MarkCommitted([]types.Transaction{{Client: 0, Seq: perClient + 1 + uint64(s)}})
		peak = max(peak, retained())
	}
	if got, limit := retained(), 2*clients+10; got > limit {
		t.Fatalf("10 numbers missing, yet the pool retains %d entries (at most %d expected)", got, limit)
	}
	for _, s := range order[9_990:] {
		p.MarkCommitted([]types.Transaction{{Client: 0, Seq: perClient + 1 + uint64(s)}})
	}
	if got := retained(); got != 2*clients {
		t.Fatalf("closing the gaps left %d entries, want %d (peak %d)", got, 2*clients, peak)
	}
	if want := uint64(clients*perClient + 10_000); p.Committed() != want {
		t.Fatalf("committed = %d, want %d", p.Committed(), want)
	}
	// A client that never fills its gaps is still bounded.
	for s := uint64(0); s < 3*maxRuns; s++ {
		p.MarkCommitted([]types.Transaction{{Client: 77, Seq: 2 * s}})
	}
	if got := len(p.clients[77].committed); got != maxRuns {
		t.Fatalf("a client that skips every second number holds %d runs, want the bound %d", got, maxRuns)
	}
}

// TestSeqRunsMatchesSet checks the run arithmetic against a plain set over
// random insertions, including both ends of the number range.
func TestSeqRunsMatchesSet(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var r seqRuns
	set := make(map[uint64]bool)
	// The highest number, then the lowest: neither follows the other.
	for _, seq := range []uint64{^uint64(0), 0} {
		if !r.add(seq) {
			t.Fatalf("add(%d) on %v reported a repeat", seq, r)
		}
		set[seq] = true
	}
	if len(r) != 2 {
		t.Fatalf("runs %v, want the two ends apart", r)
	}
	pick := func() uint64 {
		switch rng.Intn(10) {
		case 0:
			return uint64(rng.Intn(3))
		case 1:
			return ^uint64(0) - uint64(rng.Intn(3))
		}
		return 1000 + uint64(rng.Intn(300))
	}
	for i := 0; i < 5000; i++ {
		seq := pick()
		if got, want := r.add(seq), !set[seq]; got != want {
			t.Fatalf("add(%d) = %v, want %v (runs %v)", seq, got, want, r)
		}
		set[seq] = true
		probe := pick()
		if got := r.contains(probe); got != set[probe] {
			t.Fatalf("contains(%d) = %v, want %v (runs %v)", probe, got, set[probe], r)
		}
	}
	for i := 1; i < len(r); i++ {
		if r[i-1].hi+1 >= r[i].lo {
			t.Fatalf("runs %v and %v overlap or touch", r[i-1], r[i])
		}
	}
}

// BenchmarkPoolMarkCommitted retires sat512's blocks (β=1000, σ=512): on a
// node that served none of the block's clients, which is what three nodes in
// four do for every block, and on the node whose pool leased it.
func BenchmarkPoolMarkCommitted(b *testing.B) {
	const beta, sigma = 1000, 512
	payload := make([]byte, sigma)
	block := func(client, base uint64) []types.Transaction {
		txs := make([]types.Transaction, beta)
		for i := range txs {
			txs[i] = types.Transaction{Client: client, Seq: base + uint64(i), Payload: payload}
		}
		return txs
	}
	b.Run("foreign", func(b *testing.B) {
		p := NewPool(time.Hour)
		blocks := make([][]types.Transaction, b.N)
		for i := range blocks {
			blocks[i] = block(uint64(i%2), uint64(i/2)*beta)
		}
		b.ResetTimer()
		for _, txs := range blocks {
			p.MarkCommitted(txs)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*beta), "ns/tx")
	})
	b.Run("served", func(b *testing.B) {
		p := NewPool(time.Hour)
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			for _, tx := range block(1, uint64(i)*beta) {
				p.Add(tx)
			}
			txs := p.NextBatch(beta)
			b.StartTimer()
			p.MarkCommitted(txs)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*beta), "ns/tx")
	})
}
