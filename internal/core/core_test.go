package core

import (
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/flcrypto"
	"repro/internal/types"
)

func testKeySet(t testing.TB, n int) *flcrypto.KeySet {
	t.Helper()
	return flcrypto.MustGenerateKeySet(n, flcrypto.Ed25519)
}

// buildChain appends `rounds` blocks proposed round-robin by n nodes.
func buildChain(t *testing.T, ks *flcrypto.KeySet, instance uint32, rounds int) *Chain {
	t.Helper()
	c := NewChain(instance)
	n := ks.Registry.N()
	for r := 1; r <= rounds; r++ {
		proposer := (r - 1) % n
		blk, err := types.NewBlock(instance, uint64(r), flcrypto.NodeID(proposer),
			c.TipHash(), []types.Transaction{{Client: uint64(r), Seq: 1, Payload: []byte{byte(r)}}},
			ks.Privs[proposer])
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Append(blk); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

func TestChainAppendAndAudit(t *testing.T) {
	ks := testKeySet(t, 4)
	c := buildChain(t, ks, 0, 10)
	if c.Tip() != 10 {
		t.Fatalf("tip = %d", c.Tip())
	}
	if err := c.Audit(ks.Registry); err != nil {
		t.Fatal(err)
	}
}

func TestChainAppendRejectsBadLink(t *testing.T) {
	ks := testKeySet(t, 4)
	c := buildChain(t, ks, 0, 3)
	// Wrong round.
	blk, _ := types.NewBlock(0, 7, 0, c.TipHash(), nil, ks.Privs[0])
	if err := c.Append(blk); err == nil {
		t.Fatal("wrong-round block accepted")
	}
	// Wrong prev hash.
	blk, _ = types.NewBlock(0, 4, 0, flcrypto.Sum256([]byte("bogus")), nil, ks.Privs[0])
	if err := c.Append(blk); err == nil {
		t.Fatal("unlinked block accepted")
	}
	// Wrong instance.
	blk, _ = types.NewBlock(9, 4, 0, c.TipHash(), nil, ks.Privs[0])
	if err := c.Append(blk); err == nil {
		t.Fatal("wrong-instance block accepted")
	}
}

func TestChainDefiniteMonotone(t *testing.T) {
	ks := testKeySet(t, 4)
	c := buildChain(t, ks, 0, 10)
	newly := c.MarkDefinite(4)
	if len(newly) != 4 {
		t.Fatalf("newly definite = %v", newly)
	}
	if got := c.MarkDefinite(2); got != nil {
		t.Fatalf("definite moved backwards: %v", got)
	}
	if c.Definite() != 4 {
		t.Fatalf("definite = %d", c.Definite())
	}
	// Beyond the tip clamps.
	c.MarkDefinite(99)
	if c.Definite() != 10 {
		t.Fatalf("definite clamped to %d, want 10", c.Definite())
	}
}

func TestChainReplaceSuffix(t *testing.T) {
	ks := testKeySet(t, 4)
	c := buildChain(t, ks, 0, 6)
	c.MarkDefinite(2)

	// Build an alternative suffix for rounds 4..7 extending round 3.
	anchor, _ := c.HeaderAt(3)
	prev := anchor.Hash()
	var alt []types.Block
	for r := uint64(4); r <= 7; r++ {
		proposer := int(r+1) % 4
		blk, err := types.NewBlock(0, r, flcrypto.NodeID(proposer), prev,
			[]types.Transaction{{Client: 99, Seq: r}}, ks.Privs[proposer])
		if err != nil {
			t.Fatal(err)
		}
		alt = append(alt, blk)
		prev = blk.Hash()
	}
	if err := c.ReplaceSuffix(4, alt); err != nil {
		t.Fatal(err)
	}
	if c.Tip() != 7 {
		t.Fatalf("tip after recovery = %d", c.Tip())
	}
	hdr, _ := c.HeaderAt(5)
	if hdr.Proposer != flcrypto.NodeID(6%4) {
		t.Fatal("suffix not replaced")
	}
	// Replacing definite rounds must be refused.
	if err := c.ReplaceSuffix(2, nil); err == nil {
		t.Fatal("definite round replaced")
	}
	// Non-chaining versions must be refused.
	bad, _ := types.NewBlock(0, 8, 1, flcrypto.Sum256([]byte("x")), nil, ks.Privs[1])
	if err := c.ReplaceSuffix(8, []types.Block{bad}); err == nil {
		t.Fatal("non-chaining suffix accepted")
	}
}

func TestChainAuditCatchesProposerRepetition(t *testing.T) {
	ks := testKeySet(t, 4) // f = 1: adjacent blocks must differ in proposer
	c := NewChain(0)
	for r := uint64(1); r <= 2; r++ {
		blk, err := types.NewBlock(0, r, 2, c.TipHash(), nil, ks.Privs[2])
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Append(blk); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Audit(ks.Registry); err == nil {
		t.Fatal("audit missed proposer repetition within f+1 window")
	}
}

func TestProofVerify(t *testing.T) {
	ks := testKeySet(t, 4)
	c := buildChain(t, ks, 0, 3)
	prev, _ := c.SignedAt(2)

	// A header at round 3 that does not extend round 2: valid proof.
	evil := types.BlockHeader{Instance: 0, Round: 3, Proposer: 2,
		PrevHash: flcrypto.Sum256([]byte("fork")), BodyHash: (&types.Body{}).Hash()}
	evilSigned, err := evil.Sign(ks.Privs[2])
	if err != nil {
		t.Fatal(err)
	}
	proof := Proof{Curr: evilSigned, Prev: prev}
	if err := proof.Verify(ks.Registry); err != nil {
		t.Fatalf("valid proof rejected: %v", err)
	}
	if proof.Round() != 3 {
		t.Fatalf("proof round = %d", proof.Round())
	}

	// The real round-3 header links fine: no proof.
	good, _ := c.SignedAt(3)
	noProof := Proof{Curr: good, Prev: prev}
	if err := noProof.Verify(ks.Registry); err == nil {
		t.Fatal("consistent pair accepted as proof")
	}

	// Forged signature: rejected.
	forged := proof
	forged.Curr.Sig = append(flcrypto.Signature(nil), forged.Curr.Sig...)
	forged.Curr.Sig[0] ^= 1
	if err := forged.Verify(ks.Registry); err == nil {
		t.Fatal("forged proof accepted")
	}

	// Non-consecutive rounds: rejected.
	prev1, _ := c.SignedAt(1)
	gap := Proof{Curr: evilSigned, Prev: prev1}
	if err := gap.Verify(ks.Registry); err == nil {
		t.Fatal("non-consecutive proof accepted")
	}
}

func TestProofRoundTrip(t *testing.T) {
	ks := testKeySet(t, 4)
	c := buildChain(t, ks, 0, 3)
	prev, _ := c.SignedAt(2)
	evil := types.BlockHeader{Instance: 0, Round: 3, Proposer: 2,
		PrevHash: flcrypto.Sum256([]byte("fork"))}
	evilSigned, _ := evil.Sign(ks.Privs[2])
	proof := Proof{Curr: evilSigned, Prev: prev}
	d := types.NewDecoder(proof.Marshal())
	got := DecodeProof(d)
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	if err := got.Verify(ks.Registry); err != nil {
		t.Fatalf("round-tripped proof invalid: %v", err)
	}
}

func TestScheduleRoundRobin(t *testing.T) {
	ks := testKeySet(t, 4)
	c := buildChain(t, ks, 0, 5) // proposers 0,1,2,3,0
	s := newSchedule(4, 1, 0)
	// Round 6 attempt 0: next after round 5's proposer (node 0) is node 1.
	p, skipped := s.proposerFor(c, 6, 0)
	if p != 1 || skipped {
		t.Fatalf("proposer = %d (skipped=%v), want 1", p, skipped)
	}
	// Attempt 1 rotates once more.
	p, _ = s.proposerFor(c, 6, 1)
	if p != 2 {
		t.Fatalf("attempt-1 proposer = %d, want 2", p)
	}
}

func TestScheduleSkipsRecentProposer(t *testing.T) {
	// f=1, n=4: the proposer of round r−1 cannot propose round r. Walk far
	// enough attempts to force a wrap onto the skip set.
	ks := testKeySet(t, 4)
	c := buildChain(t, ks, 0, 4) // round 4 proposed by node 3
	s := newSchedule(4, 1, 0)
	for a := 0; a < 8; a++ {
		p, _ := s.proposerFor(c, 5, a)
		if p == 3 {
			t.Fatalf("attempt %d chose round 4's proposer again", a)
		}
	}
}

func TestScheduleDeterministicAcrossCalls(t *testing.T) {
	ks := testKeySet(t, 7)
	c := buildChain(t, ks, 0, 9)
	s1 := newSchedule(7, 2, 5)
	s2 := newSchedule(7, 2, 5)
	f := func(round uint16, attempt uint8) bool {
		r := uint64(round%9) + 1
		a := int(attempt % 16)
		p1, _ := s1.proposerFor(c, r, a)
		p2, _ := s2.proposerFor(c, r, a)
		return p1 == p2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestScheduleReshuffleChangesOrder(t *testing.T) {
	ks := testKeySet(t, 10)
	c := buildChain(t, ks, 0, 40)
	s := newSchedule(10, 3, 10)
	// Epoch 3 (rounds 31-40) must generally differ from the identity
	// rotation used in epoch 0; compare the order arrays directly.
	o0 := append([]flcrypto.NodeID(nil), s.orderFor(c, 5)...)
	o3 := s.orderFor(c, 35)
	same := true
	for i := range o0 {
		if o0[i] != o3[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("reshuffle produced the identity permutation (astronomically unlikely)")
	}
}

func TestFailureDetector(t *testing.T) {
	fd := newFailureDetector(1, 2)
	if fd.isSuspected(3) {
		t.Fatal("fresh FD suspects node")
	}
	fd.onTimeout(3)
	if fd.isSuspected(3) {
		t.Fatal("suspected after a single strike (threshold 2)")
	}
	fd.onTimeout(3)
	if !fd.isSuspected(3) {
		t.Fatal("not suspected after reaching threshold")
	}
	// Cap at f=1 suspects.
	fd.onTimeout(2)
	fd.onTimeout(2)
	if fd.isSuspected(2) {
		t.Fatal("FD exceeded its f-suspect budget")
	}
	// Delivery clears.
	fd.onDelivered(3)
	if fd.isSuspected(3) {
		t.Fatal("suspicion survived delivery")
	}
	// Invalidation clears everything.
	fd.onTimeout(1)
	fd.onTimeout(1)
	fd.invalidate()
	if fd.isSuspected(1) {
		t.Fatal("suspicion survived invalidation")
	}
}

func TestVersionMsgRoundTrip(t *testing.T) {
	ks := testKeySet(t, 4)
	c := buildChain(t, ks, 0, 5)
	v := versionMsg{Instance: 0, RecRound: 5, From: 2, Blocks: c.Suffix(3)}
	sig, err := ks.Privs[2].Sign(versionSigBody(v.Instance, v.RecRound, v.From, v.Blocks))
	if err != nil {
		t.Fatal(err)
	}
	v.Sig = sig
	e := types.NewEncoder(1024)
	v.encode(e)
	if e.Bytes()[0] != RecoveryTag {
		t.Fatal("version not tagged")
	}
	d := types.NewDecoder(e.Bytes()[1:])
	got := decodeVersionMsg(d)
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	if got.RecRound != 5 || got.From != 2 || len(got.Blocks) != 3 {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	if !ks.Registry.Verify(got.From, versionSigBody(got.Instance, got.RecRound, got.From, got.Blocks), got.Sig) {
		t.Fatal("signature broken by round trip")
	}
}

func TestScheduleConvictExcludes(t *testing.T) {
	ks := testKeySet(t, 7) // f = 2
	c := buildChain(t, ks, 0, 9)
	s := newSchedule(7, 2, 0)
	if !s.convict(3, 12) {
		t.Fatal("first conviction rejected")
	}
	if s.convict(3, 15) {
		t.Fatal("duplicate conviction accepted")
	}
	// Before the effective round node 3 may still propose.
	if s.excluded(3, 11) {
		t.Fatal("exclusion applied before the effective round")
	}
	if !s.excluded(3, 12) || !s.excluded(3, 100) {
		t.Fatal("exclusion not applied from the effective round on")
	}
	// proposerFor never returns a convicted node at excluded rounds. Rounds
	// in buildChain only reach 9, so extend judgment to a later round by
	// consulting many attempts of round 9 (not excluded) vs... the map is
	// keyed by round, so test attempts directly at an excluded round: use
	// the chain's round 9 but an eff of 9.
	s2 := newSchedule(7, 2, 0)
	s2.convict(1, 9)
	for a := 0; a < 12; a++ {
		p, _ := s2.proposerFor(c, 9, a)
		if p == 1 {
			t.Fatalf("attempt %d chose the excluded node", a)
		}
	}
}

func TestScheduleConvictCapAtF(t *testing.T) {
	s := newSchedule(7, 2, 0) // f = 2
	if !s.convict(1, 5) || !s.convict(2, 5) {
		t.Fatal("convictions within the f budget rejected")
	}
	if s.convict(3, 5) {
		t.Fatal("conviction beyond the f budget accepted")
	}
	if s.excluded(3, 10) {
		t.Fatal("over-budget conviction took effect")
	}
	conv := s.convictions()
	if len(conv) != 2 || conv[1] != 5 || conv[2] != 5 {
		t.Fatalf("convictions snapshot = %v", conv)
	}
}

func TestScheduleExclusionKeepsLiveness(t *testing.T) {
	// With f convicted nodes and the last-f-proposers skip set active, the
	// walk must still terminate and yield f+1 distinct eligible proposers.
	ks := testKeySet(t, 7)
	c := buildChain(t, ks, 0, 9)
	s := newSchedule(7, 2, 0)
	s.convict(5, 1)
	s.convict(6, 1)
	seen := make(map[flcrypto.NodeID]bool)
	for a := 0; a < 20; a++ {
		p, _ := s.proposerFor(c, 10, a)
		if p == 5 || p == 6 {
			t.Fatalf("excluded node proposed at attempt %d", a)
		}
		seen[p] = true
	}
	if len(seen) < 3 { // n−2f = 3 for n=7, f=2
		t.Fatalf("only %d eligible proposers seen, want ≥ 3", len(seen))
	}
}

func TestBuildBlockMemoizesPerSlot(t *testing.T) {
	// A correct node signs each (round, parent) slot at most once: redoing a
	// slot must re-propose the identical block, never a fresh batch — the
	// property that makes the equivocation conviction predicate sound.
	ks := testKeySet(t, 4)
	in := &Instance{
		cfg: Config{Instance: 0, Registry: ks.Registry, Priv: ks.Privs[0], BatchSize: 4,
			Pool: &countingSource{}},
		id: 0, n: 4, f: 1,
		chain: NewChain(0),
	}
	prev := flcrypto.Sum256([]byte("parent"))
	a, err := in.buildBlock(5, prev)
	if err != nil {
		t.Fatal(err)
	}
	b, err := in.buildBlock(5, prev)
	if err != nil {
		t.Fatal(err)
	}
	if a.Hash() != b.Hash() {
		t.Fatal("same slot produced two different signed blocks")
	}
	if got := in.metrics.SignOps.Load(); got != 1 {
		t.Fatalf("slot signed %d times, want 1", got)
	}
	// A different parent is a different slot.
	c, err := in.buildBlock(5, flcrypto.Sum256([]byte("other-parent")))
	if err != nil {
		t.Fatal(err)
	}
	if c.Hash() == a.Hash() {
		t.Fatal("different parents yielded the same block (suspicious)")
	}
	// Pruning below the definite boundary clears the cache.
	in.pruneProposals(5)
	in.propMu.Lock()
	size := len(in.propCache)
	in.propMu.Unlock()
	if size != 0 {
		t.Fatalf("cache holds %d pruned slots", size)
	}
}

// TestPruneReleasesDeadProposals: a memoized proposal stays re-proposable
// verbatim, its batch still leased, until its round is definite. Pruning then
// hands back, once, the batch of every block this node built that is not
// the chain's block at its round — its own nil-decided proposal and the
// piggyback built on it alike — but not the decided block's, and not a block
// preloaded from the proposal log.
func TestPruneReleasesDeadProposals(t *testing.T) {
	ks := testKeySet(t, 4)
	pool := &releasingSource{}
	chain := NewChain(0)
	in := &Instance{
		cfg: Config{Instance: 0, Registry: ks.Registry, Priv: ks.Privs[0], BatchSize: 2, Pool: pool},
		id:  0, n: 4, f: 1,
		chain: chain,
	}
	build := func(round uint64, prev flcrypto.Hash) types.Block {
		t.Helper()
		blk, err := in.buildBlock(round, prev)
		if err != nil {
			t.Fatal(err)
		}
		return blk
	}
	appendBlock := func(blk types.Block) {
		t.Helper()
		if err := chain.Append(blk); err != nil {
			t.Fatal(err)
		}
	}
	other := func(round uint64) types.Block {
		t.Helper()
		prev, _ := chain.HashAt(round - 1)
		blk, err := types.NewBlock(0, round, 1, prev, nil, ks.Privs[1])
		if err != nil {
			t.Fatal(err)
		}
		return blk
	}

	decided := build(1, chain.TipHash())
	appendBlock(decided)
	nilDecided := build(2, decided.Hash())
	piggyback := build(3, nilDecided.Hash())
	preloaded, err := types.NewBlock(0, 2, 0, flcrypto.Sum256([]byte("earlier parent")), []types.Transaction{{Client: 1, Seq: 99}}, ks.Privs[0])
	if err != nil {
		t.Fatal(err)
	}
	in.propCache[propKey{round: 2, prev: preloaded.Header().PrevHash}] = proposal{blk: preloaded}

	if again := build(2, decided.Hash()); again.Hash() != nilDecided.Hash() || len(pool.released) != 0 {
		t.Fatal("a slot whose attempt decided nil was not re-proposed verbatim with its batch still leased")
	}
	appendBlock(other(2))
	in.pruneProposals(2)
	if len(pool.released) != 1 || pool.released[0][0].Seq != nilDecided.Body.Txs[0].Seq {
		t.Fatalf("pruning round 2 released %v, want only the nil-decided own block's batch", pool.released)
	}
	if again := build(3, nilDecided.Hash()); again.Hash() != piggyback.Hash() {
		t.Fatal("pruning round 2 dropped the round-3 memo")
	}
	appendBlock(other(3))
	in.pruneProposals(3)
	in.pruneProposals(3)
	if len(pool.released) != 2 || pool.released[1][0].Seq != piggyback.Body.Txs[0].Seq {
		t.Fatalf("released %d batches in all, want the nil-decided block's and then the piggyback's, once each", len(pool.released))
	}
	if len(in.propCache) != 0 {
		t.Fatalf("cache holds %d pruned slots", len(in.propCache))
	}
}

// releasingSource is a countingSource that records what it is handed back.
type releasingSource struct {
	countingSource
	released [][]types.Transaction
}

func (s *releasingSource) Release(batch []types.Transaction) { s.released = append(s.released, batch) }

// countingSource hands out distinct transactions so repeated builds would
// differ if memoization broke.
type countingSource struct {
	mu sync.Mutex
	n  uint64
}

func (s *countingSource) NextBatch(max int) []types.Transaction {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]types.Transaction, max)
	for i := range out {
		s.n++
		out[i] = types.Transaction{Client: 1, Seq: s.n, Payload: []byte{byte(s.n)}}
	}
	return out
}

func (s *countingSource) MarkCommitted([]types.Transaction) {}

func (s *countingSource) Release([]types.Transaction) {}
