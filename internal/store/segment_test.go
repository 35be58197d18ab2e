package store

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/flcrypto"
	"repro/internal/types"
)

// segmentedLog appends blocks[:upTo] in runs of `every` rounds with a
// checkpoint (retaining `retain`) after each run, so the log ends up as
// several segments, and returns it open.
func segmentedLog(t *testing.T, path, snap string, opts Options, blocks []types.Block, upTo, every int, retain uint64) *BlockLog {
	t.Helper()
	log, _, err := Open(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i, blk := range blocks[:upTo] {
		if err := log.Append(blk); err != nil {
			t.Fatal(err)
		}
		if (i+1)%every == 0 {
			if _, err := log.Checkpoint(snap, opts.Instance, 0, nil, retain, anchorOf(blocks)); err != nil {
				t.Fatal(err)
			}
		}
	}
	return log
}

func segmentStarts(t *testing.T, path string) []uint64 {
	t.Helper()
	segs, err := listSegments(path)
	if err != nil {
		t.Fatal(err)
	}
	starts := make([]uint64, len(segs))
	for i, seg := range segs {
		starts[i] = seg.start
	}
	return starts
}

func equalStarts(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// reopenExpect reopens the worker and checks the snapshot base, the replayed
// suffix and the tip against the chain the test appended.
func reopenExpect(t *testing.T, path, snap string, opts Options, blocks []types.Block, wantBase, wantTip uint64) *BlockLog {
	t.Helper()
	log, loaded, replayed, err := OpenWorker(path, snap, opts)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if wantBase > 0 && (loaded == nil || loaded.BaseRound != wantBase) {
		t.Fatalf("reopen loaded snapshot %+v, want anchor %d", loaded, wantBase)
	}
	if log.Base() != wantBase || log.Tip() != wantTip {
		t.Fatalf("reopen: base=%d tip=%d, want %d/%d", log.Base(), log.Tip(), wantBase, wantTip)
	}
	if uint64(len(replayed)) != wantTip-wantBase {
		t.Fatalf("reopen replayed %d blocks, want %d", len(replayed), wantTip-wantBase)
	}
	for i, blk := range replayed {
		if blk.Hash() != blocks[wantBase+uint64(i)].Hash() {
			t.Fatalf("reopen: replayed block %d is not round %d of the chain", i, wantBase+uint64(i)+1)
		}
	}
	return log
}

// TestSegmentsRollAndUnlink pins the layout: a segment per checkpoint
// interval, named by its first round, and only whole segments at or below
// the anchor go.
func TestSegmentsRollAndUnlink(t *testing.T) {
	ks := flcrypto.MustGenerateKeySet(4, flcrypto.Ed25519)
	dir := t.TempDir()
	path, snap := filepath.Join(dir, "w0.log"), filepath.Join(dir, "w0.snap")
	opts := Options{Registry: ks.Registry, Instance: 0}
	blocks := buildBlocks(t, ks, 0, 50)
	log := segmentedLog(t, path, snap, opts, blocks, 50, 10, 12)
	// The first checkpoint, at tip 10, has nothing to anchor; each later one
	// starts a segment. The last, at tip 50, anchored at 38: the segments of
	// rounds 1..20 and 21..30 lie wholly below it, 31..40 holds it.
	if got, want := segmentStarts(t, path), []uint64{31, 41, 51}; !equalStarts(got, want) {
		t.Fatalf("segments start at %v, want %v", got, want)
	}
	if log.Base() != 30 {
		t.Fatalf("base = %d, want 30 (first retained round − 1)", log.Base())
	}
	log.Close()
	reopenExpect(t, path, snap, opts, blocks, 38, 50).Close()
}

// TestSegmentsCrashAfterSnapshotBeforeUnlink: the snapshot is durable, the
// segments it covers are still there. Reopen unlinks them and replays the
// suffix above the new anchor.
func TestSegmentsCrashAfterSnapshotBeforeUnlink(t *testing.T) {
	ks := flcrypto.MustGenerateKeySet(4, flcrypto.Ed25519)
	dir := t.TempDir()
	path, snap := filepath.Join(dir, "w0.log"), filepath.Join(dir, "w0.snap")
	opts := Options{Registry: ks.Registry, Instance: 0}
	blocks := buildBlocks(t, ks, 0, 36)
	// Segments 1..20 (unsuffixed), 21..30, 31..36; the snapshot on disk
	// anchors at 18 after the checkpoint at tip 30.
	segmentedLog(t, path, snap, opts, blocks, 36, 10, 12).Close()
	if got, want := segmentStarts(t, path), []uint64{0, 21, 31}; !equalStarts(got, want) {
		t.Fatalf("segments start at %v, want %v", got, want)
	}
	// The checkpoint that crashed: anchor 24 written, nothing unlinked.
	if err := WriteSnapshot(snap, Snapshot{Instance: 0, BaseRound: 24, BaseHash: blocks[23].Hash()}); err != nil {
		t.Fatal(err)
	}
	log := reopenExpect(t, path, snap, opts, blocks, 24, 36)
	defer log.Close()
	if got, want := segmentStarts(t, path), []uint64{21, 31}; !equalStarts(got, want) {
		t.Fatalf("after reopen segments start at %v, want %v", got, want)
	}
}

// TestSegmentsCrashAfterRollBeforeAppend: the new segment exists and is
// empty. It replays as nothing and takes the next append.
func TestSegmentsCrashAfterRollBeforeAppend(t *testing.T) {
	ks := flcrypto.MustGenerateKeySet(4, flcrypto.Ed25519)
	dir := t.TempDir()
	path, snap := filepath.Join(dir, "w0.log"), filepath.Join(dir, "w0.snap")
	opts := Options{Registry: ks.Registry, Instance: 0}
	blocks := buildBlocks(t, ks, 0, 32)
	// The run ends on a checkpoint: segment 31 was started and never written.
	segmentedLog(t, path, snap, opts, blocks, 30, 10, 12).Close()
	if info, err := os.Stat(segmentName(path, 31)); err != nil || info.Size() != 0 {
		t.Fatalf("newest segment: %v, %v (want an empty file)", info, err)
	}
	log := reopenExpect(t, path, snap, opts, blocks, 18, 30)
	for _, blk := range blocks[30:] {
		if err := log.Append(blk); err != nil {
			t.Fatal(err)
		}
	}
	log.Close()
	reopenExpect(t, path, snap, opts, blocks, 18, 32).Close()
}

// TestSegmentsTornTail: a torn frame ends the newest segment (a crash mid
// append) and is cut off; in an older segment it is corruption.
func TestSegmentsTornTail(t *testing.T) {
	ks := flcrypto.MustGenerateKeySet(4, flcrypto.Ed25519)
	dir := t.TempDir()
	path, snap := filepath.Join(dir, "w0.log"), filepath.Join(dir, "w0.snap")
	opts := Options{Registry: ks.Registry, Instance: 0}
	blocks := buildBlocks(t, ks, 0, 36)
	segmentedLog(t, path, snap, opts, blocks, 36, 10, 12).Close()
	chop := func(file string, n int64) {
		t.Helper()
		info, err := os.Stat(file)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(file, info.Size()-n); err != nil {
			t.Fatal(err)
		}
	}
	chop(segmentName(path, 31), 5)
	reopenExpect(t, path, snap, opts, blocks, 18, 35).Close()
	chop(segmentName(path, 21), 5)
	if log, _, _, err := OpenWorker(path, snap, opts); err == nil {
		log.Close()
		t.Fatal("a torn frame inside an older segment opened without error")
	}
}

// TestSegmentsResetToBase: a snapshot install drops every segment and the
// log continues at the installed base, across a reopen too.
func TestSegmentsResetToBase(t *testing.T) {
	ks := flcrypto.MustGenerateKeySet(4, flcrypto.Ed25519)
	dir := t.TempDir()
	path, snap := filepath.Join(dir, "w0.log"), filepath.Join(dir, "w0.snap")
	opts := Options{Registry: ks.Registry, Instance: 0}
	blocks := buildBlocks(t, ks, 0, 64)
	log := segmentedLog(t, path, snap, opts, blocks, 36, 10, 12)
	defer func() { log.Close() }()
	if err := log.ResetToBase(30); err == nil {
		t.Fatal("reset below the tip accepted")
	}
	if err := WriteSnapshot(snap, Snapshot{Instance: 0, BaseRound: 60, BaseHash: blocks[59].Hash()}); err != nil {
		t.Fatal(err)
	}
	if err := log.ResetToBase(60); err != nil {
		t.Fatal(err)
	}
	if got, want := segmentStarts(t, path), []uint64{61}; !equalStarts(got, want) {
		t.Fatalf("after reset segments start at %v, want %v", got, want)
	}
	if log.Base() != 60 || log.Tip() != 60 {
		t.Fatalf("after reset: base=%d tip=%d, want 60/60", log.Base(), log.Tip())
	}
	if _, err := log.ReadFrom(36, 4); !errors.Is(err, ErrCompacted) {
		t.Fatalf("read of a discarded round: %v, want ErrCompacted", err)
	}
	if err := log.Append(blocks[36]); !errors.Is(err, ErrOutOfOrder) {
		t.Fatalf("append of a pre-reset round: %v, want ErrOutOfOrder", err)
	}
	for _, blk := range blocks[60:] {
		if err := log.Append(blk); err != nil {
			t.Fatal(err)
		}
	}
	log.Close()
	log = reopenExpect(t, path, snap, opts, blocks, 60, 64)
}

// TestSegmentsOpenSingleFileLog: a compacted log of the previous format —
// one file named <path> whose first frame follows the snapshot anchor —
// opens as the oldest segment and is unlinked like any other.
func TestSegmentsOpenSingleFileLog(t *testing.T) {
	ks := flcrypto.MustGenerateKeySet(4, flcrypto.Ed25519)
	dir := t.TempDir()
	path, snap := filepath.Join(dir, "w0.log"), filepath.Join(dir, "w0.snap")
	opts := Options{Registry: ks.Registry, Instance: 0}
	blocks := buildBlocks(t, ks, 0, 40)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, blk := range blocks[15:20] {
		e := encodeFrame(blk)
		if _, err := f.Write(e.Bytes()); err != nil {
			t.Fatal(err)
		}
		e.Release()
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := WriteSnapshot(snap, Snapshot{Instance: 0, BaseRound: 15, BaseHash: blocks[14].Hash()}); err != nil {
		t.Fatal(err)
	}
	log := reopenExpect(t, path, snap, opts, blocks, 15, 20)
	defer log.Close()
	for i, blk := range blocks[20:] {
		if err := log.Append(blk); err != nil {
			t.Fatal(err)
		}
		if (i+1)%10 == 0 {
			if _, err := log.Checkpoint(snap, 0, 0, nil, 5, anchorOf(blocks)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got, want := segmentStarts(t, path), []uint64{31, 41}; !equalStarts(got, want) {
		t.Fatalf("segments start at %v, want %v (the single file gone)", got, want)
	}
}

// TestCheckpointReadsNoFrames: a checkpoint must not depend on the log's
// content. Every frame on disk is overwritten with zeros first; the anchor
// comes from the caller and the checkpoint still succeeds. (The scan for the
// anchor that this replaces failed here.)
func TestCheckpointReadsNoFrames(t *testing.T) {
	ks := flcrypto.MustGenerateKeySet(4, flcrypto.Ed25519)
	dir := t.TempDir()
	path, snap := filepath.Join(dir, "w0.log"), filepath.Join(dir, "w0.snap")
	opts := Options{Registry: ks.Registry, Instance: 0}
	blocks := buildBlocks(t, ks, 0, 40)
	log := segmentedLog(t, path, snap, opts, blocks, 40, 15, 5)
	defer log.Close()
	segs, err := listSegments(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, seg := range segs {
		info, err := os.Stat(seg.path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(seg.path, make([]byte, info.Size()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	written, err := log.Checkpoint(snap, 0, 0, nil, 5, anchorOf(blocks))
	if err != nil {
		t.Fatal(err)
	}
	if written == nil || written.BaseRound != 35 || written.BaseHash != blocks[34].Hash() {
		t.Fatalf("checkpoint wrote %+v, want anchor 35 with the caller's hash", written)
	}
	if loaded, ok, err := LoadSnapshot(snap); err != nil || !ok || loaded.BaseRound != 35 {
		t.Fatalf("snapshot on disk: %+v, %v, %v", loaded, ok, err)
	}
}
