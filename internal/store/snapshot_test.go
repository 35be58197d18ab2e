package store

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/flcrypto"
)

func TestSnapshotWriteLoadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "w0.snap")

	if _, ok, err := LoadSnapshot(path); err != nil || ok {
		t.Fatalf("missing snapshot: ok=%v err=%v (want absent, no error)", ok, err)
	}

	want := Snapshot{
		Instance:   3,
		BaseRound:  120,
		BaseHash:   flcrypto.Sum256([]byte("anchor")),
		StateRound: 117,
		State:      []byte("kv-checkpoint"),
	}
	if err := WriteSnapshot(path, want); err != nil {
		t.Fatal(err)
	}
	got, ok, err := LoadSnapshot(path)
	if err != nil || !ok {
		t.Fatalf("load: ok=%v err=%v", ok, err)
	}
	if got.Instance != want.Instance || got.BaseRound != want.BaseRound ||
		got.BaseHash != want.BaseHash || got.StateRound != want.StateRound ||
		string(got.State) != string(want.State) {
		t.Fatalf("roundtrip mismatch: %+v vs %+v", got, want)
	}

	// Overwrite is atomic-replace: the new content wins.
	want.BaseRound = 240
	if err := WriteSnapshot(path, want); err != nil {
		t.Fatal(err)
	}
	got, _, _ = LoadSnapshot(path)
	if got.BaseRound != 240 {
		t.Fatalf("overwrite lost: base %d", got.BaseRound)
	}

	// A corrupt snapshot must be an error, not silently absent.
	raw, _ := os.ReadFile(path)
	raw[len(raw)-1] ^= 0xFF
	os.WriteFile(path, raw, 0o644)
	if _, _, err := LoadSnapshot(path); err == nil {
		t.Fatal("corrupt snapshot loaded without error")
	}
}

// countFrames scans the frame headers of every segment of the log at path.
func countFrames(t *testing.T, path string) int {
	t.Helper()
	segs, err := listSegments(path)
	if err != nil {
		t.Fatal(err)
	}
	frames := 0
	for _, seg := range segs {
		raw, err := os.ReadFile(seg.path)
		if err != nil {
			t.Fatal(err)
		}
		for off := 0; off+12 <= len(raw); {
			if binary.BigEndian.Uint32(raw[off:]) != frameMagic {
				t.Fatalf("%s: bad magic at offset %d", seg.path, off)
			}
			n := int(binary.BigEndian.Uint32(raw[off+4:]))
			off += 12 + n
			frames++
		}
	}
	return frames
}

// TestCheckpointCompactsLog is the compaction acceptance test: a checkpoint
// anchors a snapshot `retain` rounds below the tip (clamped to the state
// round) and starts a new segment; the one after it unlinks the segment the
// new anchor has passed; restart replay reads only the post-snapshot suffix,
// and appends continue seamlessly.
func TestCheckpointCompactsLog(t *testing.T) {
	ks := flcrypto.MustGenerateKeySet(4, flcrypto.Ed25519)
	dir := t.TempDir()
	logPath := filepath.Join(dir, "w0.log")
	snapPath := filepath.Join(dir, "w0.snap")
	opts := Options{Registry: ks.Registry, Instance: 0}

	blocks := buildBlocks(t, ks, 0, 44)
	log, _, err := Open(logPath, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, blk := range blocks[:40] {
		if err := log.Append(blk); err != nil {
			t.Fatal(err)
		}
	}

	const retain = 3
	written, err := log.Checkpoint(snapPath, 0, 39, []byte("state@39"), retain, anchorOf(blocks))
	if err != nil {
		t.Fatal(err)
	}
	if written == nil || written.BaseRound != 37 || written.BaseHash != blocks[36].Hash() {
		t.Fatalf("checkpoint wrote %+v, want anchor 37", written)
	}
	// The only segment holds the anchor: nothing to unlink yet.
	if log.Base() != 0 || log.Tip() != 40 || countFrames(t, logPath) != 40 {
		t.Fatalf("after checkpoint: base=%d tip=%d frames=%d (want 0/40/40)", log.Base(), log.Tip(), countFrames(t, logPath))
	}
	// A checkpoint that would not advance the anchor is a no-op.
	if again, err := log.Checkpoint(snapPath, 0, 39, nil, retain, anchorOf(blocks)); err != nil || again != nil {
		t.Fatalf("repeated checkpoint: %+v, %v (want a no-op)", again, err)
	}

	// Appends continue across the roll.
	for _, blk := range blocks[40:] {
		if err := log.Append(blk); err != nil {
			t.Fatal(err)
		}
	}
	log.Close()

	// Restart: replay must read only the post-snapshot suffix.
	log2, snap, replayed, err := OpenWorker(logPath, snapPath, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer log2.Close()
	if snap == nil || snap.BaseRound != 37 || snap.StateRound != 39 || string(snap.State) != "state@39" {
		t.Fatalf("snapshot on reopen: %+v", snap)
	}
	if snap.BaseHash != blocks[36].Hash() {
		t.Fatal("snapshot anchor hash mismatch")
	}
	if len(replayed) != 44-37 {
		t.Fatalf("replayed %d blocks, want %d (suffix only)", len(replayed), 44-37)
	}
	if replayed[0].Signed.Header.Round != 38 {
		t.Fatalf("replay starts at round %d, want 38", replayed[0].Signed.Header.Round)
	}
	if log2.Base() != 37 || log2.Tip() != 44 {
		t.Fatalf("reopened: base=%d tip=%d", log2.Base(), log2.Tip())
	}

	// A second checkpoint anchors at 41: the segment of rounds 1..40 lies
	// wholly below it and goes; the one of 41..44 holds the anchor and stays.
	if written, err := log2.Checkpoint(snapPath, 0, 43, nil, retain, anchorOf(blocks)); err != nil || written == nil || written.BaseRound != 41 {
		t.Fatalf("second checkpoint: %+v, %v (want anchor 41)", written, err)
	}
	if log2.Base() != 40 {
		t.Fatalf("second checkpoint base=%d, want 40", log2.Base())
	}
	if frames := countFrames(t, logPath); frames != 4 {
		t.Fatalf("after second checkpoint: %d frames on disk, want 4", frames)
	}
}

// TestCheckpointCrashWindow simulates a crash between snapshot write and
// log compaction: replay must skim the pre-anchor frames and still return
// only the suffix, verified against the snapshot anchor.
func TestCheckpointCrashWindow(t *testing.T) {
	ks := flcrypto.MustGenerateKeySet(4, flcrypto.Ed25519)
	dir := t.TempDir()
	logPath := filepath.Join(dir, "w0.log")
	snapPath := filepath.Join(dir, "w0.snap")
	opts := Options{Registry: ks.Registry, Instance: 0}

	blocks := buildBlocks(t, ks, 0, 20)
	log, _, err := Open(logPath, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, blk := range blocks {
		if err := log.Append(blk); err != nil {
			t.Fatal(err)
		}
	}
	log.Close()

	// Snapshot written, log NOT compacted — the crash window.
	if err := WriteSnapshot(snapPath, Snapshot{
		Instance:  0,
		BaseRound: 15,
		BaseHash:  blocks[14].Hash(),
	}); err != nil {
		t.Fatal(err)
	}

	log2, snap, replayed, err := OpenWorker(logPath, snapPath, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer log2.Close()
	if snap == nil || snap.BaseRound != 15 {
		t.Fatalf("snapshot: %+v", snap)
	}
	if len(replayed) != 5 || replayed[0].Signed.Header.Round != 16 {
		t.Fatalf("replayed %d blocks starting at %d, want 5 starting at 16",
			len(replayed), replayed[0].Signed.Header.Round)
	}
	if log2.Tip() != 20 {
		t.Fatalf("tip %d, want 20", log2.Tip())
	}
	// The next append still chains.
	more := buildBlocks(t, ks, 0, 21)
	if err := log2.Append(more[20]); err != nil {
		t.Fatal(err)
	}
}

// TestOpenWorkerRejectsForeignSnapshot guards the instance check.
func TestOpenWorkerRejectsForeignSnapshot(t *testing.T) {
	dir := t.TempDir()
	snapPath := filepath.Join(dir, "w0.snap")
	if err := WriteSnapshot(snapPath, Snapshot{Instance: 7, BaseRound: 5}); err != nil {
		t.Fatal(err)
	}
	_, _, _, err := OpenWorker(filepath.Join(dir, "w0.log"), snapPath, Options{Instance: 0})
	if err == nil {
		t.Fatal("foreign-instance snapshot accepted")
	}
}
