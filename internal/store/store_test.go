package store

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/flcrypto"
	"repro/internal/types"
)

func buildBlocks(t *testing.T, ks *flcrypto.KeySet, instance uint32, n int) []types.Block {
	t.Helper()
	prev := types.GenesisHeader(instance).Hash()
	var out []types.Block
	for r := 1; r <= n; r++ {
		proposer := (r - 1) % ks.Registry.N()
		blk, err := types.NewBlock(instance, uint64(r), flcrypto.NodeID(proposer), prev,
			[]types.Transaction{{Client: uint64(r), Seq: 1, Payload: []byte{byte(r)}}},
			ks.Privs[proposer])
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, blk)
		prev = blk.Hash()
	}
	return out
}

// anchorOf serves Checkpoint's anchor lookup from a test chain (blocks[i] is
// round i+1), the way core.Chain.HashAt does on a node.
func anchorOf(blocks []types.Block) func(uint64) (flcrypto.Hash, bool) {
	return func(round uint64) (flcrypto.Hash, bool) {
		if round == 0 || round > uint64(len(blocks)) {
			return flcrypto.Hash{}, false
		}
		return blocks[round-1].Hash(), true
	}
}

func TestStoreAppendReopenReplay(t *testing.T) {
	ks := flcrypto.MustGenerateKeySet(4, flcrypto.Ed25519)
	path := filepath.Join(t.TempDir(), "chain", "w0.log")
	opts := Options{Registry: ks.Registry, Instance: 0}

	log, blocks, err := Open(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks) != 0 {
		t.Fatalf("fresh log replayed %d blocks", len(blocks))
	}
	want := buildBlocks(t, ks, 0, 8)
	for _, blk := range want {
		if err := log.Append(blk); err != nil {
			t.Fatal(err)
		}
	}
	if log.Tip() != 8 {
		t.Fatalf("tip = %d", log.Tip())
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	log2, got, err := Open(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer log2.Close()
	if len(got) != 8 {
		t.Fatalf("replayed %d blocks, want 8", len(got))
	}
	for i := range got {
		if got[i].Hash() != want[i].Hash() {
			t.Fatalf("block %d changed across restart", i)
		}
	}
	// Appending continues from the replayed tip.
	more := buildBlocksFrom(t, ks, got[len(got)-1], 2)
	for _, blk := range more {
		if err := log2.Append(blk); err != nil {
			t.Fatal(err)
		}
	}
	if log2.Tip() != 10 {
		t.Fatalf("tip after continue = %d", log2.Tip())
	}
}

func buildBlocksFrom(t *testing.T, ks *flcrypto.KeySet, parent types.Block, n int) []types.Block {
	t.Helper()
	prev := parent.Hash()
	round := parent.Signed.Header.Round
	var out []types.Block
	for i := 1; i <= n; i++ {
		r := round + uint64(i)
		proposer := int(r-1) % ks.Registry.N()
		blk, err := types.NewBlock(0, r, flcrypto.NodeID(proposer), prev, nil, ks.Privs[proposer])
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, blk)
		prev = blk.Hash()
	}
	return out
}

func TestStoreTornTailTruncated(t *testing.T) {
	ks := flcrypto.MustGenerateKeySet(4, flcrypto.Ed25519)
	path := filepath.Join(t.TempDir(), "w0.log")
	opts := Options{Registry: ks.Registry, Instance: 0}
	log, _, err := Open(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	blocks := buildBlocks(t, ks, 0, 3)
	for _, blk := range blocks {
		if err := log.Append(blk); err != nil {
			t.Fatal(err)
		}
	}
	log.Close()

	// Simulate a crash mid-append: write a partial frame at the tail.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0xF1, 0x7E, 0xB1, 0x0C, 0x00, 0x00}) // magic + half a length
	f.Close()

	log2, got, err := Open(path, opts)
	if err != nil {
		t.Fatalf("torn tail should self-heal: %v", err)
	}
	defer log2.Close()
	if len(got) != 3 {
		t.Fatalf("replayed %d, want 3", len(got))
	}
	// The log accepts new appends at the healed boundary.
	more := buildBlocksFrom(t, ks, got[2], 1)
	if err := log2.Append(more[0]); err != nil {
		t.Fatal(err)
	}
	log2.Close()
	_, got2, err := Open(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(got2) != 4 {
		t.Fatalf("after heal+append replay got %d, want 4", len(got2))
	}
}

func TestStoreCorruptPayloadStopsReplay(t *testing.T) {
	ks := flcrypto.MustGenerateKeySet(4, flcrypto.Ed25519)
	path := filepath.Join(t.TempDir(), "w0.log")
	opts := Options{Registry: ks.Registry, Instance: 0}
	log, _, err := Open(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, blk := range buildBlocks(t, ks, 0, 2) {
		if err := log.Append(blk); err != nil {
			t.Fatal(err)
		}
	}
	log.Close()

	// Flip one payload byte of the LAST frame: CRC fails, frame dropped,
	// earlier prefix survives.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-3] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	log2, got, err := Open(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer log2.Close()
	if len(got) != 1 {
		t.Fatalf("replayed %d blocks after tail corruption, want 1", len(got))
	}
}

func TestStoreRejectsWrongInstance(t *testing.T) {
	ks := flcrypto.MustGenerateKeySet(4, flcrypto.Ed25519)
	path := filepath.Join(t.TempDir(), "w0.log")
	log, _, err := Open(path, Options{Registry: ks.Registry, Instance: 0})
	if err != nil {
		t.Fatal(err)
	}
	for _, blk := range buildBlocks(t, ks, 0, 2) {
		if err := log.Append(blk); err != nil {
			t.Fatal(err)
		}
	}
	log.Close()
	// Reopening the same file as instance 1's log must fail loudly — the
	// frames chain but belong to another worker.
	if _, _, err := Open(path, Options{Registry: ks.Registry, Instance: 1}); err == nil {
		t.Fatal("foreign instance log accepted")
	}
}

func TestStoreAppendOrderEnforced(t *testing.T) {
	ks := flcrypto.MustGenerateKeySet(4, flcrypto.Ed25519)
	path := filepath.Join(t.TempDir(), "w0.log")
	log, _, err := Open(path, Options{Registry: ks.Registry, Instance: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	blocks := buildBlocks(t, ks, 0, 3)
	if err := log.Append(blocks[1]); err == nil {
		t.Fatal("gap append accepted")
	}
	if err := log.Append(blocks[0]); err != nil {
		t.Fatal(err)
	}
	if err := log.Append(blocks[0]); err == nil {
		t.Fatal("duplicate round accepted")
	}
}

func TestStoreReadFrom(t *testing.T) {
	ks := flcrypto.MustGenerateKeySet(4, flcrypto.Ed25519)
	path := filepath.Join(t.TempDir(), "w0.log")
	log, _, err := Open(path, Options{Registry: ks.Registry, Instance: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	want := buildBlocks(t, ks, 0, 10)
	for _, blk := range want {
		if err := log.Append(blk); err != nil {
			t.Fatal(err)
		}
	}

	// Mid-log cursor, bounded batch.
	got, err := log.ReadFrom(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("ReadFrom(4,3) returned %d blocks", len(got))
	}
	for i, blk := range got {
		if r := blk.Signed.Header.Round; r != uint64(4+i) {
			t.Fatalf("block %d has round %d", i, r)
		}
		if blk.Hash() != want[3+i].Hash() {
			t.Fatalf("round %d content differs from what was appended", 4+i)
		}
	}

	// A batch running past the tip returns just the available suffix; a
	// cursor past the tip returns nothing.
	if got, _ := log.ReadFrom(9, 10); len(got) != 2 {
		t.Fatalf("ReadFrom(9,10) returned %d blocks, want 2", len(got))
	}
	if got, _ := log.ReadFrom(11, 5); len(got) != 0 {
		t.Fatalf("ReadFrom past tip returned %d blocks", len(got))
	}
}

// TestStoreReadFromSequentialCache: consecutive cursor reads (the clientapi
// replay pattern) resume at the cached byte offset, and the cache survives
// interleaved appends and a checkpoint's roll to a new segment — the results
// must be indistinguishable from full scans throughout.
func TestStoreReadFromSequentialCache(t *testing.T) {
	ks := flcrypto.MustGenerateKeySet(4, flcrypto.Ed25519)
	dir := t.TempDir()
	log, _, err := Open(filepath.Join(dir, "w0.log"), Options{Registry: ks.Registry, Instance: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	blocks := buildBlocks(t, ks, 0, 40)
	for _, blk := range blocks[:20] {
		if err := log.Append(blk); err != nil {
			t.Fatal(err)
		}
	}
	check := func(from uint64, max, wantLen int) {
		t.Helper()
		got, err := log.ReadFrom(from, max)
		if err != nil {
			t.Fatalf("ReadFrom(%d,%d): %v", from, max, err)
		}
		if len(got) != wantLen {
			t.Fatalf("ReadFrom(%d,%d) returned %d blocks, want %d", from, max, len(got), wantLen)
		}
		for i, blk := range got {
			if blk.Hash() != blocks[from-1+uint64(i)].Hash() {
				t.Fatalf("ReadFrom(%d,%d): block %d mismatches round %d", from, max, i, from+uint64(i))
			}
		}
	}
	check(1, 8, 8)  // cold
	check(9, 8, 8)  // cached offset
	check(17, 8, 4) // cached, truncated at tip
	check(21, 8, 0) // at the frontier
	for _, blk := range blocks[20:30] {
		if err := log.Append(blk); err != nil {
			t.Fatal(err)
		}
	}
	check(21, 8, 8) // the frontier offset stays valid across appends
	// Checkpoint starts a new segment; the offset cached into the old one
	// stays good, and a read runs on across the boundary.
	if _, err := log.Checkpoint(filepath.Join(dir, "w0.snap"), 0, 0, nil, 8, anchorOf(blocks)); err != nil {
		t.Fatal(err)
	}
	for _, blk := range blocks[30:] {
		if err := log.Append(blk); err != nil {
			t.Fatal(err)
		}
	}
	check(29, 8, 8)  // cached offset in the first segment, on into the second
	check(37, 8, 4)  // cached offset in the second segment
	check(23, 8, 8)  // backwards jump: cache miss, still exact
	check(31, 2, 2)  // a segment's first round
	check(1, 40, 40) // everything, across the boundary
}

func TestStoreReadFromCompacted(t *testing.T) {
	ks := flcrypto.MustGenerateKeySet(4, flcrypto.Ed25519)
	dir := t.TempDir()
	path := filepath.Join(dir, "w0.log")
	snap := filepath.Join(dir, "w0.snap")
	log, _, err := Open(path, Options{Registry: ks.Registry, Instance: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	blocks := buildBlocks(t, ks, 0, 40)
	// Two checkpoint cycles, retaining 5 rounds below the tip: the second
	// anchors at 35 and unlinks the segment of rounds 1..20, which lies
	// wholly below it; the segment of 21..40 holds the anchor and stays.
	for _, upTo := range []int{20, 40} {
		for _, blk := range blocks[upTo-20 : upTo] {
			if err := log.Append(blk); err != nil {
				t.Fatal(err)
			}
		}
		written, err := log.Checkpoint(snap, 0, 0, nil, 5, anchorOf(blocks))
		if err != nil {
			t.Fatal(err)
		}
		if want := uint64(upTo - 5); written == nil || written.BaseRound != want {
			t.Fatalf("checkpoint at tip %d wrote %+v, want anchor %d", upTo, written, want)
		}
	}
	if log.Base() != 20 {
		t.Fatalf("base after the second checkpoint = %d, want 20", log.Base())
	}
	if _, err := log.ReadFrom(10, 4); !errors.Is(err, ErrCompacted) {
		t.Fatalf("read below the compaction base: %v, want ErrCompacted", err)
	}
	got, err := log.ReadFrom(21, 30)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 20 || got[0].Signed.Header.Round != 21 {
		t.Fatalf("post-compaction read returned %d blocks from round %d, want 20 from 21", len(got), got[0].Signed.Header.Round)
	}
}

func TestStoreSyncMode(t *testing.T) {
	ks := flcrypto.MustGenerateKeySet(4, flcrypto.Ed25519)
	path := filepath.Join(t.TempDir(), "w0.log")
	log, _, err := Open(path, Options{Registry: ks.Registry, Instance: 0, Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	for _, blk := range buildBlocks(t, ks, 0, 2) {
		if err := log.Append(blk); err != nil {
			t.Fatal(err)
		}
	}
}
