// Package store persists each worker's definite chain to disk: an
// append-only log of length-prefixed, checksummed block frames. Only
// definite (final) blocks are written — tentative blocks may be rescinded
// by the recovery procedure and never touch disk — so a restarted node
// reloads a prefix that BBFC-Finality guarantees will never change, and
// rejoins the cluster from there via the normal catch-up path.
//
// The format is deliberately simple and self-healing: on open, the log is
// replayed frame by frame; the first torn or corrupt frame (a crash mid
// append) truncates the file to the last good boundary.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/flcrypto"
	"repro/internal/metrics"
	"repro/internal/types"
)

// frameMagic guards against replaying a foreign file.
const frameMagic uint32 = 0xF17E_B10C

// maxFrame bounds a single persisted block.
const maxFrame = 256 << 20

// scanAction is a frame visitor's verdict.
type scanAction int

const (
	// scanContinue consumes the frame and keeps walking.
	scanContinue scanAction = iota
	// scanStopInclude consumes the frame, then stops.
	scanStopInclude
	// scanStopExclude stops without consuming the frame.
	scanStopExclude
)

// scanFrames walks the checksummed frames of r in order, invoking fn with
// each structurally valid payload (magic, length bound, and CRC all check
// out — every consumer gets the same integrity guarantees). It returns the
// byte offset just past the last consumed frame; the walk ends at the first
// torn/foreign/corrupt frame or when fn stops it.
func scanFrames(r io.Reader, fn func(payload []byte) scanAction) int64 {
	var offset int64
	var header [12]byte
	for {
		if _, err := io.ReadFull(r, header[:]); err != nil {
			return offset // clean EOF or torn header
		}
		if binary.BigEndian.Uint32(header[0:]) != frameMagic {
			return offset
		}
		n := binary.BigEndian.Uint32(header[4:])
		if n > maxFrame {
			return offset
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(r, payload); err != nil {
			return offset // torn payload
		}
		if crc32.ChecksumIEEE(payload) != binary.BigEndian.Uint32(header[8:]) {
			return offset // bit rot or torn write across the crc boundary
		}
		switch fn(payload) {
		case scanStopExclude:
			return offset
		case scanStopInclude:
			return offset + 12 + int64(n)
		}
		offset += 12 + int64(n)
	}
}

// frameHeader builds the wire header for a frame payload.
func frameHeader(payload []byte) [12]byte {
	var header [12]byte
	binary.BigEndian.PutUint32(header[0:], frameMagic)
	binary.BigEndian.PutUint32(header[4:], uint32(len(payload)))
	binary.BigEndian.PutUint32(header[8:], crc32.ChecksumIEEE(payload))
	return header
}

// encodeFrame renders blk's complete checksummed frame (header followed by
// payload, contiguous) into a pooled encoder. Every append path — inline,
// group commit, proposal log — frames blocks through here, so the layout
// lives in one place and each frame costs one buffer and one write. The
// caller must Release the encoder once the bytes are consumed.
func encodeFrame(blk types.Block) *types.Encoder {
	e := types.GetEncoder(12 + 256 + blk.Body.Size())
	var reserve [12]byte
	e.Raw(reserve[:])
	blk.Encode(e)
	buf := e.Bytes()
	payload := buf[12:]
	binary.BigEndian.PutUint32(buf[0:], frameMagic)
	binary.BigEndian.PutUint32(buf[4:], uint32(len(payload)))
	binary.BigEndian.PutUint32(buf[8:], crc32.ChecksumIEEE(payload))
	return e
}

// BlockLog is one worker's persistent chain.
//
// Lock order: mu (tip/base/pending state) may be taken before ioMu (file
// handle I/O), never the other way around. The group committer takes them
// separately — state under mu, the write+fsync under ioMu alone — so
// appends keep enqueueing while an fsync is in flight, which is what forms
// the commit batches.
type BlockLog struct {
	mu     sync.Mutex
	ioMu   sync.Mutex
	f      *os.File
	path   string
	base   uint64 // round preceding the first frame (0 for a full log)
	tip    uint64 // last persisted round
	sync   bool
	failed error // sticky group-commit I/O failure; appends refuse after it

	gc *groupCommitter // non-nil in group-commit mode

	// readGen identifies the current log file; Checkpoint bumps it when it
	// swaps the file, invalidating cached read offsets into the old one.
	readGen uint64
	// readCache remembers where the last ReadFrom stopped, so a cursor
	// replay advancing sequentially (the clientapi pattern) resumes the
	// frame scan at that byte offset instead of re-decoding the whole
	// prefix — O(log) total per subscriber instead of O(log²). One entry:
	// concurrent subscribers at different positions fall back to full
	// scans, they just lose the shortcut.
	readCache struct {
		gen  uint64
		next uint64 // the round expected at off
		off  int64
	}
}

// Options configures Open.
type Options struct {
	// Sync forces an fsync after every append (durable but slow); without
	// it the OS page cache owns durability, which is the usual trade for
	// throughput-oriented deployments.
	Sync bool
	// GroupCommit, with Sync, batches appends into one buffered write and a
	// single fsync per batch instead of one fsync per block: appends that
	// land while a sync is in flight join the next batch, and waiters are
	// acked once their batch is durable. Sequential blocking appenders see
	// per-append durability unchanged; pipelined appenders (AppendAsync)
	// amortize the fsync across the whole batch. The flush never holds a
	// batch open: a lone append syncs at once, and batches form from the
	// appends that arrive during the previous fsync. Ignored without Sync.
	GroupCommit bool
	// GroupCommitMaxBatch caps the frames per fsync (default 256).
	GroupCommitMaxBatch int
	// Registry, when non-nil, verifies block signatures during replay so a
	// tampered log is rejected rather than adopted.
	Registry *flcrypto.Registry
	// Instance is the worker the log belongs to; replay rejects frames of
	// other instances.
	Instance uint32
}

// Open opens (creating if needed) the log at path and replays it, returning
// the persisted definite chain prefix in round order. A corrupt or torn
// tail is truncated away; corruption in the middle of the replayed prefix
// surfaces as an error.
func Open(path string, opts Options) (*BlockLog, []types.Block, error) {
	return openAt(path, opts, 0, types.GenesisHeader(opts.Instance).Hash())
}

// OpenWorker opens a worker's full persistent state: the snapshot at
// snapPath (if one exists) plus the block-log suffix at logPath anchored on
// it. The returned blocks start at snapshot.BaseRound+1 — after a
// compaction cycle, restart replay touches (and signature-verifies) only
// the post-snapshot suffix, so restart cost is O(delta), not O(history).
// The snapshot pointer is nil when no snapshot exists.
func OpenWorker(logPath, snapPath string, opts Options) (*BlockLog, *Snapshot, []types.Block, error) {
	snap, ok, err := LoadSnapshot(snapPath)
	if err != nil {
		return nil, nil, nil, err
	}
	base, baseHash := uint64(0), types.GenesisHeader(opts.Instance).Hash()
	var snapPtr *Snapshot
	if ok {
		if snap.Instance != opts.Instance {
			return nil, nil, nil, fmt.Errorf("store: snapshot belongs to instance %d, not %d", snap.Instance, opts.Instance)
		}
		base, baseHash = snap.BaseRound, snap.BaseHash
		snapPtr = &snap
	}
	log, blocks, err := openAt(logPath, opts, base, baseHash)
	if err != nil {
		return nil, nil, nil, err
	}
	return log, snapPtr, blocks, nil
}

func openAt(path string, opts Options, base uint64, baseHash flcrypto.Hash) (*BlockLog, []types.Block, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, nil, fmt.Errorf("store: mkdir: %w", err)
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("store: open %s: %w", path, err)
	}
	blocks, goodBytes, err := replay(f, opts, base, baseHash)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	// Truncate any torn tail so the next append starts at a frame
	// boundary.
	if err := f.Truncate(goodBytes); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("store: truncate: %w", err)
	}
	if _, err := f.Seek(goodBytes, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("store: seek: %w", err)
	}
	log := &BlockLog{f: f, path: path, base: base, tip: base, sync: opts.Sync}
	if len(blocks) > 0 {
		log.tip = blocks[len(blocks)-1].Signed.Header.Round
	}
	if opts.Sync && opts.GroupCommit {
		maxBatch := opts.GroupCommitMaxBatch
		if maxBatch <= 0 {
			maxBatch = 256
		}
		log.gc = newGroupCommitter(log, maxBatch)
	}
	return log, blocks, nil
}

// replay scans the file, returning the valid block suffix above base and
// the byte offset of the end of the last good frame. Frames at rounds ≤
// base (possible when a crash landed between snapshot write and log
// compaction) are skimmed without verification — the snapshot covers them.
func replay(f *os.File, opts Options, base uint64, baseHash flcrypto.Hash) ([]types.Block, int64, error) {
	var blocks []types.Block
	var chainErr error
	prevHash := baseHash
	nextRound := base + 1
	offset := scanFrames(f, func(payload []byte) scanAction {
		d := types.NewDecoder(payload)
		blk := types.DecodeBlock(d)
		if d.Finish() != nil {
			return scanStopExclude
		}
		hdr := blk.Signed.Header
		if hdr.Round <= base {
			// Pre-snapshot frame left behind by an interrupted compaction:
			// the snapshot supersedes it.
			return scanContinue
		}
		// The replayed suffix must be a real chain: in-order rounds,
		// intact hash links, matching bodies, valid signatures.
		if hdr.Instance != opts.Instance || hdr.Round != nextRound || hdr.PrevHash != prevHash {
			chainErr = fmt.Errorf("store: log frame does not chain (round %d)", hdr.Round)
			return scanStopExclude
		}
		if blk.CheckBody() != nil {
			chainErr = fmt.Errorf("store: body mismatch at round %d", hdr.Round)
			return scanStopExclude
		}
		if opts.Registry != nil && !blk.Signed.Verify(opts.Registry) {
			chainErr = fmt.Errorf("store: bad signature at round %d", hdr.Round)
			return scanStopExclude
		}
		blocks = append(blocks, blk)
		prevHash = blk.Hash()
		nextRound++
		return scanContinue
	})
	if chainErr != nil {
		return nil, 0, chainErr
	}
	return blocks, offset, nil
}

// ErrOutOfOrder reports an append that does not extend the persisted tip.
var ErrOutOfOrder = errors.New("store: append out of order")

// Append persists one definite block and returns once it is as durable as
// the log's mode promises (page cache without Sync; on stable storage with
// it — in group-commit mode the return may share its fsync with neighboring
// appends). Blocks must arrive in round order with no gaps (the core emits
// definite decisions exactly that way).
func (l *BlockLog) Append(blk types.Block) error {
	wait, err := l.AppendAsync(blk)
	if err != nil {
		return err
	}
	return wait()
}

// AppendAsync enqueues one definite block for persistence and returns a
// wait function that blocks until the block is durable (per the log's
// mode) and reports the outcome. Ordering violations and sticky failures
// are reported immediately through err. Without group commit the write
// happens inline and wait is trivial; with it, a single sequential caller
// can pipeline appends — enqueueing round r+1 while round r's batch is
// fsyncing is exactly what forms the commit batches.
func (l *BlockLog) AppendAsync(blk types.Block) (wait func() error, err error) {
	hdr := blk.Signed.Header
	l.mu.Lock()
	if l.failed != nil {
		err := l.failed
		l.mu.Unlock()
		return nil, err
	}
	if hdr.Round != l.tip+1 {
		tip := l.tip
		l.mu.Unlock()
		return nil, fmt.Errorf("%w: round %d after tip %d", ErrOutOfOrder, hdr.Round, tip)
	}
	if l.gc != nil {
		// Backpressure: past 2×maxBatch pending frames, wait for the oldest
		// in-flight batch before enqueueing — an unbounded pipeline would
		// otherwise buffer arbitrarily much undurable data in memory.
		for l.gc.pendingFramesLocked() >= 2*l.gc.maxBatch {
			ch := l.gc.oldestDoneLocked()
			l.mu.Unlock()
			l.gc.kick()
			<-ch
			l.mu.Lock()
			if l.failed != nil {
				err := l.failed
				l.mu.Unlock()
				return nil, err
			}
		}
		b := l.gc.enqueueLocked(blk)
		l.tip = hdr.Round
		l.mu.Unlock()
		l.gc.kick()
		return func() error {
			<-b.done
			return b.err
		}, nil
	}
	defer l.mu.Unlock()
	e := encodeFrame(blk)
	defer e.Release()
	if _, err := l.f.Write(e.Bytes()); err != nil {
		return nil, fmt.Errorf("store: write: %w", err)
	}
	if l.sync {
		if err := l.f.Sync(); err != nil {
			return nil, fmt.Errorf("store: fsync: %w", err)
		}
	}
	l.tip = hdr.Round
	return func() error { return nil }, nil
}

// GroupCommitStats reports the group-commit batches fsynced so far (zero
// snapshot when group commit is off).
func (l *BlockLog) GroupCommitStats() metrics.BatchSnapshot {
	if l.gc == nil {
		return metrics.BatchSnapshot{}
	}
	return l.gc.stats.Snapshot()
}

// gcBatch is one group-commit unit: the concatenated frames of the appends
// that joined it, acked together after one write + one fsync.
type gcBatch struct {
	buf   []byte
	count int
	done  chan struct{}
	err   error
}

// groupCommitter owns the background flush loop of a group-commit log.
type groupCommitter struct {
	l        *BlockLog
	maxBatch int
	stats    metrics.BatchStats

	// cur and sealed are guarded by l.mu (appends already hold it).
	cur    *gcBatch
	sealed []*gcBatch

	// flushMu serializes whole flush passes (batch grab through fsync and
	// ack). flush() is called from the committer goroutine and directly
	// from Checkpoint/Close; without this, two passes could each grab
	// batches under l.mu and then race for the file, writing rounds out of
	// order — replay would reject the log as non-chaining. Lock order:
	// flushMu → l.mu (released) → ioMu.
	flushMu sync.Mutex

	kickCh   chan struct{}
	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once
}

func newGroupCommitter(l *BlockLog, maxBatch int) *groupCommitter {
	gc := &groupCommitter{
		l:        l,
		maxBatch: maxBatch,
		kickCh:   make(chan struct{}, 1),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	go gc.run()
	return gc
}

// pendingFramesLocked counts frames awaiting fsync. Callers hold l.mu.
func (gc *groupCommitter) pendingFramesLocked() int {
	n := 0
	for _, b := range gc.sealed {
		n += b.count
	}
	if gc.cur != nil {
		n += gc.cur.count
	}
	return n
}

// oldestDoneLocked returns the done channel of the oldest pending batch
// (the first to be acked). Callers hold l.mu and have checked that pending
// frames exist.
func (gc *groupCommitter) oldestDoneLocked() <-chan struct{} {
	if len(gc.sealed) > 0 {
		return gc.sealed[0].done
	}
	return gc.cur.done
}

// enqueueLocked appends blk's frame to the open batch. Callers hold l.mu.
func (gc *groupCommitter) enqueueLocked(blk types.Block) *gcBatch {
	if gc.cur == nil {
		gc.cur = &gcBatch{done: make(chan struct{})}
	}
	b := gc.cur
	e := encodeFrame(blk)
	b.buf = append(b.buf, e.Bytes()...)
	e.Release()
	b.count++
	if b.count >= gc.maxBatch {
		gc.sealed = append(gc.sealed, b)
		gc.cur = nil
	}
	return b
}

// kick nudges the flush loop (non-blocking; one pending nudge suffices —
// the loop drains everything it finds).
func (gc *groupCommitter) kick() {
	select {
	case gc.kickCh <- struct{}{}:
	default:
	}
}

func (gc *groupCommitter) run() {
	defer close(gc.done)
	for {
		select {
		case <-gc.stop:
			gc.flush()
			return
		case <-gc.kickCh:
		}
		gc.flush()
	}
}

// flush drains every sealed and open batch, writes them with one buffered
// write each and a single fsync for the whole drain, then acks the waiters.
// It loops until no pending batch remains, so appends that arrive during an
// fsync are picked up immediately — that in-flight window is where batches
// come from. Checkpoint and Close also call it directly to drain the log
// before operating on the file; concurrent calls are safe (state is taken
// under l.mu, I/O runs under ioMu).
func (gc *groupCommitter) flush() {
	gc.flushMu.Lock()
	defer gc.flushMu.Unlock()
	l := gc.l
	for {
		l.mu.Lock()
		batches := gc.sealed
		gc.sealed = nil
		if gc.cur != nil {
			batches = append(batches, gc.cur)
			gc.cur = nil
		}
		l.mu.Unlock()
		if len(batches) == 0 {
			return
		}
		var err error
		frames := 0
		l.ioMu.Lock()
		for _, b := range batches {
			frames += b.count
			if err == nil {
				_, err = l.f.Write(b.buf)
			}
		}
		if err == nil {
			err = l.f.Sync()
		}
		l.ioMu.Unlock()
		if err != nil {
			err = fmt.Errorf("store: group commit: %w", err)
			l.mu.Lock()
			if l.failed == nil {
				l.failed = err
			}
			l.mu.Unlock()
		} else {
			gc.stats.Observe(frames)
		}
		for _, b := range batches {
			b.err = err
			close(b.done)
		}
	}
}

// stopAndFlush terminates the flush loop after a final drain.
func (gc *groupCommitter) stopAndFlush() {
	gc.stopOnce.Do(func() { close(gc.stop) })
	<-gc.done
}

// Tip returns the last persisted round.
func (l *BlockLog) Tip() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.tip
}

// Base returns the round preceding the log's first frame (0 for a full
// log; the snapshot anchor after a Checkpoint).
func (l *BlockLog) Base() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.base
}

// Checkpoint writes a snapshot anchored `retain` rounds below the persisted
// tip and compacts the log to the post-anchor suffix, bounding restart
// replay to the last `retain` blocks plus whatever lands after. The retained
// tail keeps recovery anchors reachable on the restarted node (callers pass
// ≥ f+2). stateRound/state are the application checkpoint stored in the
// snapshot (zero/nil when the deployment does not capture app state).
//
// Crash safety: the snapshot is written (atomically) before the log is
// rewritten (atomically, via rename). A crash between the two leaves a
// snapshot plus an uncompacted log, which replay handles by skimming the
// pre-anchor frames. A no-op (anchor would not advance) returns nil.
func (l *BlockLog) Checkpoint(snapPath string, instance uint32, stateRound uint64, state []byte, retain uint64) error {
	if l.gc != nil {
		// Drain pending group-commit batches so the scan below sees every
		// appended frame in the file.
		l.gc.flush()
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.ioMu.Lock()
	defer l.ioMu.Unlock()
	if l.failed != nil {
		return l.failed
	}
	if l.tip <= retain {
		return nil
	}
	newBase := l.tip - retain
	// Never compact past the application checkpoint: rounds above stateRound
	// are exactly what restore must re-apply, so they have to survive in the
	// log. With ω > 1 a fast worker's tip can run far ahead of the merged
	// delivery position its state was captured at, making this clamp load-
	// bearing rather than theoretical.
	if stateRound > 0 && newBase > stateRound {
		newBase = stateRound
	}
	if newBase <= l.base {
		return nil
	}

	// Scan the current log (through an independent read handle; the page
	// cache keeps it coherent with recent appends) for the anchor hash and
	// the byte offset of the first post-anchor frame.
	r, err := os.Open(l.path)
	if err != nil {
		return fmt.Errorf("store: checkpoint open: %w", err)
	}
	defer r.Close()
	var baseHash flcrypto.Hash
	found := false
	cut := scanFrames(r, func(payload []byte) scanAction {
		d := types.NewDecoder(payload)
		blk := types.DecodeBlock(d)
		if d.Finish() != nil {
			return scanStopExclude
		}
		if blk.Signed.Header.Round == newBase {
			baseHash = blk.Hash()
			found = true
			return scanStopInclude
		}
		return scanContinue
	})
	if !found {
		return fmt.Errorf("store: checkpoint anchor round %d not found in log", newBase)
	}

	if err := WriteSnapshot(snapPath, Snapshot{
		Instance:   instance,
		BaseRound:  newBase,
		BaseHash:   baseHash,
		StateRound: stateRound,
		State:      state,
	}); err != nil {
		return err
	}

	// Rewrite the log as the post-anchor suffix and swap it in.
	end, err := l.f.Seek(0, io.SeekEnd)
	if err != nil {
		return fmt.Errorf("store: checkpoint seek: %w", err)
	}
	tmp := l.path + ".tmp"
	w, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("store: checkpoint tmp: %w", err)
	}
	if _, err := io.Copy(w, io.NewSectionReader(r, cut, end-cut)); err != nil {
		w.Close()
		os.Remove(tmp)
		return fmt.Errorf("store: checkpoint copy: %w", err)
	}
	if err := w.Sync(); err != nil {
		w.Close()
		os.Remove(tmp)
		return fmt.Errorf("store: checkpoint fsync: %w", err)
	}
	if err := w.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: checkpoint close: %w", err)
	}
	if err := os.Rename(tmp, l.path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: checkpoint rename: %w", err)
	}
	nf, err := os.OpenFile(l.path, os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("store: checkpoint reopen: %w", err)
	}
	if _, err := nf.Seek(0, io.SeekEnd); err != nil {
		nf.Close()
		return fmt.Errorf("store: checkpoint seek new: %w", err)
	}
	l.f.Close()
	l.f = nf
	l.base = newBase
	l.readGen++ // cached read offsets point into the old file
	return nil
}

// ResetToBase re-anchors the log on a snapshot-transfer base: every persisted
// frame is discarded and the next appendable round becomes newBase+1. The
// caller must have written the snapshot covering rounds ≤ newBase first
// (WriteSnapshot is atomic) — a crash after the snapshot write but before
// this truncation is safe because replay skims frames at rounds ≤ base.
// newBase must be strictly above the current tip: snapshot transfer only
// installs state from beyond the local horizon, so nothing durable is lost.
func (l *BlockLog) ResetToBase(newBase uint64) error {
	if l.gc != nil {
		// Drain in-flight batches first; their waiters must be acked before
		// the file is truncated out from under them.
		l.gc.flush()
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.ioMu.Lock()
	defer l.ioMu.Unlock()
	if l.failed != nil {
		return l.failed
	}
	if newBase <= l.tip {
		return fmt.Errorf("store: reset to base %d at or below tip %d", newBase, l.tip)
	}
	if err := l.f.Truncate(0); err != nil {
		return fmt.Errorf("store: reset truncate: %w", err)
	}
	if _, err := l.f.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("store: reset seek: %w", err)
	}
	if l.sync {
		if err := l.f.Sync(); err != nil {
			return fmt.Errorf("store: reset fsync: %w", err)
		}
	}
	l.base = newBase
	l.tip = newBase
	l.readGen++ // cached read offsets point into the discarded content
	return nil
}

// ErrCompacted reports a read below the log's compaction base: those rounds
// were checkpointed away and survive only in the snapshot.
var ErrCompacted = errors.New("store: rounds compacted away")

// ReadFrom returns up to max consecutive definite blocks starting at round
// `from`, read back from the on-disk log — the historical half of a client
// cursor replay (internal/clientapi). Only what is physically in the file is
// returned: with group commit, rounds whose batch has not flushed yet are
// simply absent and the caller tops up from the in-memory chain. A `from` at
// or below the compaction base returns ErrCompacted (the retained tail no
// longer covers the cursor); a `from` beyond the file's content returns an
// empty slice.
//
// The scan reads through an independent handle (the page cache keeps it
// coherent with the append handle), so readers never contend with the append
// path for file position.
func (l *BlockLog) ReadFrom(from uint64, max int) ([]types.Block, error) {
	if max <= 0 {
		return nil, nil
	}
	l.mu.Lock()
	base := l.base
	failed := l.failed
	gen := l.readGen
	startOff := int64(0)
	if l.readCache.gen == gen && l.readCache.next == from {
		startOff = l.readCache.off
	}
	l.mu.Unlock()
	if failed != nil {
		return nil, failed
	}
	if from <= base {
		return nil, fmt.Errorf("%w: round %d at or below base %d", ErrCompacted, from, base)
	}
	r, err := os.Open(l.path)
	if err != nil {
		return nil, fmt.Errorf("store: read open: %w", err)
	}
	defer r.Close()
	if startOff > 0 {
		if _, err := r.Seek(startOff, io.SeekStart); err != nil {
			return nil, fmt.Errorf("store: read seek: %w", err)
		}
	}
	var blocks []types.Block
	next := from
	gap := false
	consumed := scanFrames(r, func(payload []byte) scanAction {
		d := types.NewDecoder(payload)
		blk := types.DecodeBlock(d)
		if d.Finish() != nil {
			return scanStopExclude
		}
		round := blk.Signed.Header.Round
		if round < next {
			return scanContinue // skim the prefix below the cursor
		}
		if round != next {
			gap = true
			return scanStopExclude // a concurrent compaction swapped the file
		}
		blocks = append(blocks, blk)
		next++
		if len(blocks) >= max {
			return scanStopInclude
		}
		return scanContinue
	})
	if !gap {
		// The scan stopped either after max blocks or at the end of the
		// valid frames; in both cases round `next` is (or will be appended)
		// exactly at this offset, so the following sequential read can
		// resume here. Skipped when Checkpoint swapped the file mid-scan —
		// the bumped generation would reject the entry anyway.
		l.mu.Lock()
		if l.readGen == gen {
			l.readCache.gen = gen
			l.readCache.next = next
			l.readCache.off = startOff + consumed
		}
		l.mu.Unlock()
	}
	return blocks, nil
}

// Close drains any pending group-commit batches, flushes, and closes the
// log. Callers must have stopped appending.
func (l *BlockLog) Close() error {
	if l.gc != nil {
		l.gc.stopAndFlush()
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.ioMu.Lock()
	defer l.ioMu.Unlock()
	if err := l.f.Sync(); err != nil {
		l.f.Close()
		return err
	}
	return l.f.Close()
}
