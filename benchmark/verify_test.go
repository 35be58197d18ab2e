package main

import (
	"testing"
	"time"

	fireledger "repro"
)

// A stream that carries a write under its receipt passes; one that carries
// the same write in a second block is a verification failure, and so is a
// receipt naming a block that lacks the write.
func TestCheckBlocks(t *testing.T) {
	h1, h2 := fireledger.Hash{1}, fireledger.Hash{2}
	s := &loadSession{clientID: loadClientBase}
	for seq, h := range []fireledger.Hash{h1, h2} {
		s.writes = append(s.writes, write{
			seq: uint64(seq + 1), done: time.Second,
			receipt: fireledger.Receipt{Worker: 0, Round: uint64(seq + 1), BlockHash: h},
		})
	}
	tx := func(seq uint64) txKey { return txKey{loadClientBase, seq} }
	for _, c := range []struct {
		name     string
		blocks   []streamBlock
		problems int
		repeats  int
	}{
		{"each write once, under its receipt",
			[]streamBlock{{pos: 0, hash: h1, txs: []txKey{tx(1)}}, {pos: 1, hash: h2, txs: []txKey{tx(2)}}}, 0, 0},
		{"write 1 streamed in both blocks",
			[]streamBlock{{pos: 0, hash: h1, txs: []txKey{tx(1)}}, {pos: 1, hash: h2, txs: []txKey{tx(2), tx(1)}}}, 1, 1},
		{"write 2 missing from the block its receipt names",
			[]streamBlock{{pos: 0, hash: h1, txs: []txKey{tx(1)}}, {pos: 1, hash: h2}}, 1, 0},
	} {
		problems, repeats := newLedger(1, []*loadSession{s}).checkBlocks("test", c.blocks)
		if len(problems) != c.problems || repeats != c.repeats {
			t.Errorf("%s: problems %q, repeats %d; want %d and %d", c.name, problems, repeats, c.problems, c.repeats)
		}
	}
}

// A tokened read may return the write at its token or a write of the same key
// that the ledger orders after it, whichever of the two the session sent
// first; a value ordered before the token's write, or another key's, is a
// fault.
func TestCheckReads(t *testing.T) {
	w := workload{KVKeys: 10, Workers: 1}
	s := &loadSession{}
	for idx, round := range map[int]uint64{0: 5, 10: 3, 20: 7, 3: 1} {
		s.writes = append(s.writes, write{idx: idx, done: time.Second, receipt: fireledger.Receipt{Round: round}})
	}
	p := &pass{w: w, sessions: []*loadSession{s}, reads: []read{
		{want: 10, got: 10}, // the write at the token
		{want: 10, got: 20}, // a later write, ordered after it
		{want: 10, got: 0},  // an earlier write that was parked and ordered after it
		{want: 0, got: 10},  // a later write that the ledger ordered before: stale
		{want: 0, got: 3},   // another key's value
		{want: 10, got: 30}, // a write with no receipt: cannot be refuted
	}}
	p.checkReads()
	for i, faulty := range []bool{false, false, false, true, true, false} {
		if got := p.reads[i].fault != ""; got != faulty {
			t.Errorf("read %d (%+v): fault %v, want %v", i, p.reads[i], got, faulty)
		}
	}
}
