package store

import (
	"path/filepath"
	"testing"
	"time"

	"repro/internal/flcrypto"
	"repro/internal/types"
)

// testChain builds n linked signed blocks for instance 0.
func testChain(t *testing.T, n int) ([]types.Block, *flcrypto.Registry) {
	t.Helper()
	ks, err := flcrypto.GenerateKeySet(4, flcrypto.Ed25519, flcrypto.NewDeterministicReader("gc-test"))
	if err != nil {
		t.Fatal(err)
	}
	blocks := make([]types.Block, n)
	prev := types.GenesisHeader(0).Hash()
	for r := 0; r < n; r++ {
		txs := []types.Transaction{{Client: 1, Seq: uint64(r), Payload: []byte("payload")}}
		blk, err := types.NewBlock(0, uint64(r+1), 0, prev, txs, ks.Privs[0])
		if err != nil {
			t.Fatal(err)
		}
		blocks[r] = blk
		prev = blk.Hash()
	}
	return blocks, ks.Registry
}

// TestGroupCommitDurableReplay appends through group commit, closes, and
// reopens: every acked block must replay, byte-for-byte verifiable.
func TestGroupCommitDurableReplay(t *testing.T) {
	blocks, reg := testChain(t, 50)
	path := filepath.Join(t.TempDir(), "w0.log")
	opts := Options{Sync: true, GroupCommit: true, Registry: reg, Instance: 0}
	log, replayed, err := Open(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(replayed) != 0 {
		t.Fatalf("fresh log replayed %d blocks", len(replayed))
	}
	// Pipeline: enqueue everything, then wait for every ack.
	waits := make([]func() error, 0, len(blocks))
	for _, blk := range blocks {
		w, err := log.AppendAsync(blk)
		if err != nil {
			t.Fatal(err)
		}
		waits = append(waits, w)
	}
	for i, w := range waits {
		if err := w(); err != nil {
			t.Fatalf("block %d not durable: %v", i+1, err)
		}
	}
	if log.Tip() != uint64(len(blocks)) {
		t.Fatalf("tip %d, want %d", log.Tip(), len(blocks))
	}
	stats := log.GroupCommitStats()
	if stats.Items != uint64(len(blocks)) {
		t.Fatalf("group commit covered %d frames, want %d", stats.Items, len(blocks))
	}
	if stats.Batches == 0 || stats.Batches > stats.Items {
		t.Fatalf("implausible batch count %d for %d frames", stats.Batches, stats.Items)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	_, replayed, err = Open(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(replayed) != len(blocks) {
		t.Fatalf("replayed %d blocks, want %d", len(replayed), len(blocks))
	}
	for i := range replayed {
		if replayed[i].Hash() != blocks[i].Hash() {
			t.Fatalf("block %d differs after replay", i+1)
		}
	}
}

// TestGroupCommitBlockingAppend checks the blocking Append contract holds
// unchanged under group commit: each call returns only after its block is
// durable, and out-of-order appends are refused immediately.
func TestGroupCommitBlockingAppend(t *testing.T) {
	blocks, reg := testChain(t, 8)
	path := filepath.Join(t.TempDir(), "w0.log")
	opts := Options{Sync: true, GroupCommit: true, Registry: reg, Instance: 0}
	log, _, err := Open(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	for _, blk := range blocks[:4] {
		if err := log.Append(blk); err != nil {
			t.Fatal(err)
		}
	}
	if err := log.Append(blocks[6]); err == nil {
		t.Fatal("gap accepted")
	}
	if err := log.Append(blocks[4]); err != nil {
		t.Fatalf("in-order append after refused gap: %v", err)
	}
}

// TestGroupCommitCheckpointFlushes checks that Checkpoint sees appends whose
// batch had not been flushed yet: the committer must be drained into the
// current segment before the next one starts.
func TestGroupCommitCheckpointFlushes(t *testing.T) {
	blocks, reg := testChain(t, 40)
	dir := t.TempDir()
	path := filepath.Join(dir, "w0.log")
	snap := filepath.Join(dir, "w0.snap")
	opts := Options{Sync: true, GroupCommit: true, Registry: reg, Instance: 0}
	log, _, err := Open(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Retire the flush loop so every batch stays pending and Checkpoint has
	// to drain them itself.
	log.gc.stopAndFlush()
	waits := make([]func() error, 0, len(blocks))
	for _, blk := range blocks {
		w, err := log.AppendAsync(blk)
		if err != nil {
			t.Fatal(err)
		}
		waits = append(waits, w)
	}
	written, err := log.Checkpoint(snap, 0, 0, nil, 10, anchorOf(blocks))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range waits {
		if err := w(); err != nil {
			t.Fatal(err)
		}
	}
	if written == nil || written.BaseRound != uint64(len(blocks))-10 {
		t.Fatalf("checkpoint wrote %+v, want anchor %d", written, len(blocks)-10)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, snapState, replayed, err := OpenWorker(path, snap, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if snapState == nil {
		t.Fatal("no snapshot after checkpoint")
	}
	if len(replayed) != 10 {
		t.Fatalf("replayed %d post-snapshot blocks, want 10", len(replayed))
	}
}

// TestGroupCommitConcurrentWaiters hammers the ack path: many goroutines
// each wait for their own append while a single dispatcher keeps the round
// order. Run under -race in CI.
func TestGroupCommitConcurrentWaiters(t *testing.T) {
	blocks, reg := testChain(t, 200)
	path := filepath.Join(t.TempDir(), "w0.log")
	log, _, err := Open(path, Options{Sync: true, GroupCommit: true, Registry: reg, Instance: 0})
	if err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, len(blocks))
	for _, blk := range blocks {
		w, err := log.AppendAsync(blk)
		if err != nil {
			t.Fatal(err)
		}
		go func() { errs <- w() }()
	}
	for range blocks {
		select {
		case err := <-errs:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("append ack never arrived")
		}
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestGroupCommitWithoutSyncIsIgnored documents that GroupCommit is a
// durability feature: without Sync the log behaves exactly as before.
func TestGroupCommitWithoutSyncIsIgnored(t *testing.T) {
	blocks, reg := testChain(t, 3)
	path := filepath.Join(t.TempDir(), "w0.log")
	log, _, err := Open(path, Options{GroupCommit: true, Registry: reg, Instance: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	for _, blk := range blocks {
		if err := log.Append(blk); err != nil {
			t.Fatal(err)
		}
	}
	if stats := log.GroupCommitStats(); stats.Batches != 0 {
		t.Fatalf("group commit active without Sync: %+v", stats)
	}
}

// TestGroupCommitCheckpointConcurrentFlush is the regression test for the
// interleaved-flush ordering race: Checkpoint drains the committer directly
// while the committer goroutine is also flushing; without whole-pass
// serialization the two flushers could write batches out of round order and
// poison the log. Appends, checkpoints, and background flushes run
// concurrently here, then the log must replay as a clean chain.
func TestGroupCommitCheckpointConcurrentFlush(t *testing.T) {
	blocks, reg := testChain(t, 600)
	dir := t.TempDir()
	path := filepath.Join(dir, "w0.log")
	snap := filepath.Join(dir, "w0.snap")
	opts := Options{
		Sync: true, GroupCommit: true,
		// Tiny batches force many flush passes, maximizing interleavings
		// between the committer goroutine and Checkpoint's direct drains.
		GroupCommitMaxBatch: 2,
		Registry:            reg, Instance: 0,
	}
	log, _, err := Open(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	var lastWait func() error
	for i, blk := range blocks {
		w, err := log.AppendAsync(blk)
		if err != nil {
			t.Fatal(err)
		}
		lastWait = w
		if (i+1)%50 == 0 {
			if _, err := log.Checkpoint(snap, 0, 0, nil, 20, anchorOf(blocks)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := lastWait(); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	// The log must replay as an intact chain anchored on the snapshot.
	reopened, snapState, replayed, err := OpenWorker(path, snap, opts)
	if err != nil {
		t.Fatalf("log did not replay cleanly: %v", err)
	}
	defer reopened.Close()
	if snapState == nil {
		t.Fatal("no snapshot written")
	}
	if got := reopened.Tip(); got != uint64(len(blocks)) {
		t.Fatalf("tip %d after replay, want %d", got, len(blocks))
	}
	if len(replayed) == 0 {
		t.Fatal("no post-snapshot suffix replayed")
	}
}

// TestGroupCommitNaturalBatching pins the one flush policy: nothing holds a
// batch open, so a lone append on a quiet log acks at once, and appends that
// arrive while a flush is in flight share the next fsync. Every ack must be
// honored and the log must replay clean.
func TestGroupCommitNaturalBatching(t *testing.T) {
	blocks, reg := testChain(t, 300)
	path := filepath.Join(t.TempDir(), "w0.log")
	opts := Options{Sync: true, GroupCommit: true, Registry: reg, Instance: 0}
	log, _, err := Open(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := log.Append(blocks[0]); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("lone append on quiet log took %v", elapsed)
	}
	// Stall the in-flight flush at its I/O step and pipeline the rest behind
	// it: they must come out in far fewer fsyncs than frames.
	log.ioMu.Lock()
	waits := make([]func() error, 0, len(blocks)-1)
	for _, blk := range blocks[1:] {
		w, err := log.AppendAsync(blk)
		if err != nil {
			log.ioMu.Unlock()
			t.Fatal(err)
		}
		waits = append(waits, w)
	}
	log.ioMu.Unlock()
	for _, w := range waits {
		if err := w(); err != nil {
			t.Fatal(err)
		}
	}
	stats := log.GroupCommitStats()
	if stats.Items != uint64(len(blocks)) {
		t.Fatalf("group commit covered %d frames, want %d", stats.Items, len(blocks))
	}
	// At most: the lone append, the stalled flush, and one or two drains of
	// everything that queued behind it.
	if stats.Batches > 4 {
		t.Fatalf("appends behind an in-flight flush did not batch: %d fsyncs for %d frames", stats.Batches, stats.Items)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	_, replayed, err := Open(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(replayed) != len(blocks) {
		t.Fatalf("replayed %d blocks, want %d", len(replayed), len(blocks))
	}
}
