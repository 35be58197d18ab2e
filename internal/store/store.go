// Package store persists each worker's definite chain to disk: an
// append-only log of length-prefixed, checksummed block frames. Only
// definite (final) blocks are written — tentative blocks may be rescinded
// by the recovery procedure and never touch disk — so a restarted node
// reloads a prefix that BBFC-Finality guarantees will never change, and
// rejoins the cluster from there via the normal catch-up path.
//
// A log is a run of segment files: <path> itself, then <path>.<first round,
// 20 digits> for each segment started later, each holding consecutive rounds
// from the one in its name; appends go to the newest. A checkpoint writes a
// snapshot, starts a new segment and unlinks the segments that lie wholly at
// or below the snapshot's anchor: nothing is read or copied. (A log that has
// never been checkpointed is the single file <path>, as it always was.)
//
// The format is deliberately simple and self-healing: on open, the segments
// are replayed frame by frame; a torn or corrupt frame at the end of the
// newest one (a crash mid append) truncates it to the last good boundary.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
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

// segment is one file of a log.
type segment struct {
	path string
	// start is the first round the file holds, from its name; 0 for the
	// unsuffixed file, a log's first segment, which sorts first.
	start uint64
}

func segmentName(path string, start uint64) string {
	return fmt.Sprintf("%s.%020d", path, start)
}

// listSegments finds the segment files of the log at path, oldest first.
func listSegments(path string) ([]segment, error) {
	dir, base := filepath.Split(path)
	entries, err := os.ReadDir(filepath.Clean(dir))
	if err != nil {
		return nil, err
	}
	var segs []segment
	for _, e := range entries {
		name := e.Name()
		if name == base {
			segs = append(segs, segment{path: path})
			continue
		}
		suffix, ok := strings.CutPrefix(name, base+".")
		if !ok || len(suffix) != 20 {
			continue
		}
		start, err := strconv.ParseUint(suffix, 10, 64)
		if err != nil || start == 0 {
			continue
		}
		segs = append(segs, segment{path: filepath.Join(dir, name), start: start})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].start < segs[j].start })
	return segs, nil
}

// BlockLog is one worker's persistent chain.
//
// Lock order: mu (tip/base/segments/pending state) may be taken before ioMu
// (file handle I/O), never the other way around. The group committer takes
// them separately — state under mu, the write+fsync under ioMu alone — so
// appends keep enqueueing while an fsync is in flight, which is what forms
// the commit batches.
type BlockLog struct {
	mu   sync.Mutex
	ioMu sync.Mutex
	f    *os.File  // append handle on the newest segment
	path string    // base name of the segment files
	segs []segment // oldest first; never empty
	// base is the round preceding the first readable frame: the snapshot
	// anchor on open, the first retained segment's first round − 1 once a
	// checkpoint has unlinked one (so at least `retain` rounds stay
	// readable, usually more).
	base uint64
	// snapBase is the anchor of the newest snapshot loaded or written; a
	// checkpoint that would not advance it is a no-op.
	snapBase uint64
	tip      uint64 // last persisted round
	sync     bool
	failed   error // sticky group-commit I/O failure; appends refuse after it

	gc *groupCommitter // non-nil in group-commit mode

	// readCache remembers where the last ReadFrom stopped, so a cursor
	// replay advancing sequentially (the clientapi pattern) resumes the
	// frame scan at that byte offset instead of re-decoding the segment's
	// prefix — O(log) total per subscriber instead of O(log²). One entry:
	// concurrent subscribers at different positions fall back to scanning
	// their segment from its start, they just lose the shortcut.
	readCache struct {
		seg  string // the segment off points into
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
	segs, err := listSegments(path)
	if err != nil {
		return nil, nil, fmt.Errorf("store: list segments: %w", err)
	}
	if len(segs) == 0 {
		segs = []segment{{path: path}}
	}
	log := &BlockLog{path: path, segs: segs, base: base, snapBase: base, tip: base, sync: opts.Sync}
	// A crash between a snapshot write and the unlinks that follow it leaves
	// segments the snapshot covers; finish the job.
	if err := log.dropThroughLocked(base); err != nil {
		return nil, nil, err
	}
	blocks, err := log.replay(opts, baseHash)
	if err != nil {
		return nil, nil, err
	}
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

// replay scans the segments in order, returning the valid block suffix above
// base, and leaves l.f open at the end of the newest segment's last good
// frame. Frames at rounds ≤ base (the snapshot anchor usually falls inside a
// segment) are skimmed without verification — the snapshot covers them. Only
// the newest segment may end in a torn frame: the others were complete when
// their successor was started.
func (l *BlockLog) replay(opts Options, baseHash flcrypto.Hash) ([]types.Block, error) {
	var blocks []types.Block
	var chainErr error
	prevHash := baseHash
	nextRound := l.base + 1
	visit := func(payload []byte) scanAction {
		d := types.NewDecoder(payload)
		blk := types.DecodeBlock(d)
		if d.Finish() != nil {
			return scanStopExclude
		}
		hdr := blk.Signed.Header
		if hdr.Round <= l.base {
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
	}
	for i, seg := range l.segs {
		flags := os.O_RDONLY
		if i == len(l.segs)-1 {
			flags = os.O_RDWR | os.O_CREATE
		}
		f, err := os.OpenFile(seg.path, flags, 0o644)
		if err != nil {
			return nil, fmt.Errorf("store: open %s: %w", seg.path, err)
		}
		good := scanFrames(f, visit)
		if chainErr != nil {
			f.Close()
			return nil, chainErr
		}
		if i < len(l.segs)-1 {
			info, err := f.Stat()
			f.Close()
			if err != nil {
				return nil, fmt.Errorf("store: stat %s: %w", seg.path, err)
			}
			if good != info.Size() {
				return nil, fmt.Errorf("store: segment %s is corrupt at byte %d and is not the newest", seg.path, good)
			}
			continue
		}
		// Truncate any torn tail so the next append starts at a frame
		// boundary.
		if err := f.Truncate(good); err != nil {
			f.Close()
			return nil, fmt.Errorf("store: truncate: %w", err)
		}
		if _, err := f.Seek(good, io.SeekStart); err != nil {
			f.Close()
			return nil, fmt.Errorf("store: seek: %w", err)
		}
		l.f = f
	}
	return blocks, nil
}

// dropThroughLocked unlinks every segment that lies wholly at or below round
// r — one whose successor starts at or below r+1 — and advances base to the
// first retained round − 1. The newest segment always stays.
func (l *BlockLog) dropThroughLocked(r uint64) error {
	for len(l.segs) > 1 && l.segs[1].start <= r+1 {
		if err := os.Remove(l.segs[0].path); err != nil {
			return fmt.Errorf("store: unlink segment: %w", err)
		}
		l.segs = l.segs[1:]
		if first := l.segs[0].start - 1; first > l.base {
			l.base = first
		}
	}
	return nil
}

// rollLocked starts a new segment for the rounds from start on and moves the
// append handle to it. Callers hold mu and ioMu and have made sure the
// current segment holds every round up to the tip.
func (l *BlockLog) rollLocked(start uint64) error {
	if l.segs[len(l.segs)-1].start == start {
		return nil // nothing was appended since the last roll
	}
	seg := segment{path: segmentName(l.path, start), start: start}
	f, err := os.OpenFile(seg.path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("store: new segment: %w", err)
	}
	old := l.f
	l.f = f
	l.segs = append(l.segs, seg)
	if err := old.Close(); err != nil {
		return fmt.Errorf("store: close segment: %w", err)
	}
	return nil
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
// come from.
func (gc *groupCommitter) flush() {
	gc.flushMu.Lock()
	defer gc.flushMu.Unlock()
	gc.drain()
}

// drain is flush for a caller that holds flushMu (Checkpoint, ResetToBase
// and Close keep it while they operate on the file).
func (gc *groupCommitter) drain() {
	l := gc.l
	for {
		l.mu.Lock()
		batches := gc.takeLocked()
		l.mu.Unlock()
		if len(batches) == 0 {
			return
		}
		if err := gc.write(batches); err != nil {
			l.mu.Lock()
			if l.failed == nil {
				l.failed = err
			}
			l.mu.Unlock()
		}
	}
}

// takeLocked removes and returns every pending batch. Callers hold l.mu.
func (gc *groupCommitter) takeLocked() []*gcBatch {
	batches := gc.sealed
	gc.sealed = nil
	if gc.cur != nil {
		batches = append(batches, gc.cur)
		gc.cur = nil
	}
	return batches
}

// write appends batches to the newest segment with one fsync and acks their
// waiters with the outcome. Callers hold flushMu.
func (gc *groupCommitter) write(batches []*gcBatch) error {
	l := gc.l
	var err error
	frames := 0
	l.ioMu.Lock()
	for _, b := range batches {
		frames += b.count
		if err == nil {
			_, err = l.f.Write(b.buf)
		}
	}
	if err == nil && frames > 0 {
		err = l.f.Sync()
	}
	l.ioMu.Unlock()
	if err != nil {
		err = fmt.Errorf("store: group commit: %w", err)
	} else if frames > 0 {
		gc.stats.Observe(frames)
	}
	for _, b := range batches {
		b.err = err
		close(b.done)
	}
	return err
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

// Base returns the round preceding the log's first readable frame (0 for a
// full log; at or below the newest snapshot's anchor after a Checkpoint).
func (l *BlockLog) Base() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.base
}

// quiesce locks the log for an operation on its files and makes the newest
// segment hold every round ≤ tip: pending group-commit batches are written
// out first, the bulk of them before appenders are locked out. The returned
// function unlocks.
func (l *BlockLog) quiesce() (unlock func()) {
	if l.gc == nil {
		l.mu.Lock()
		l.ioMu.Lock()
		return func() { l.ioMu.Unlock(); l.mu.Unlock() }
	}
	l.gc.flushMu.Lock()
	l.gc.drain()
	l.mu.Lock()
	if err := l.gc.write(l.gc.takeLocked()); err != nil && l.failed == nil {
		l.failed = err
	}
	l.ioMu.Lock()
	return func() { l.ioMu.Unlock(); l.mu.Unlock(); l.gc.flushMu.Unlock() }
}

// Checkpoint writes a snapshot anchored `retain` rounds below the persisted
// tip and drops the log segments the snapshot covers, bounding restart
// replay to the last `retain` blocks plus whatever lands after. The retained
// tail keeps recovery anchors reachable on the restarted node (callers pass
// ≥ f+2). stateRound/state are the application checkpoint stored in the
// snapshot (zero/nil when the deployment does not capture app state).
// hashAt supplies the header hash at the anchor round (core.Chain.HashAt:
// the chain holds every round the log does).
//
// The cost does not depend on the log's size: one snapshot file, one new
// empty segment, and an unlink per segment that lies wholly at or below the
// anchor. Segments start where checkpoints happen, so up to one checkpoint
// interval more than `retain` stays on disk and readable.
//
// Crash safety: the snapshot is written (atomically, fsynced) before any
// segment is unlinked. A crash in between leaves a snapshot plus the
// segments it covers, which the next open unlinks; a crash after the new
// segment's creation leaves it empty, which replays as nothing.
//
// It returns the snapshot it wrote, or nil when the anchor would not advance
// (or the chain no longer holds it: a snapshot install re-anchored it).
func (l *BlockLog) Checkpoint(snapPath string, instance uint32, stateRound uint64, state []byte, retain uint64,
	hashAt func(round uint64) (flcrypto.Hash, bool)) (*Snapshot, error) {
	defer l.quiesce()()
	if l.failed != nil {
		return nil, l.failed
	}
	if l.tip <= retain {
		return nil, nil
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
	if newBase <= l.snapBase {
		return nil, nil
	}
	baseHash, ok := hashAt(newBase)
	if !ok {
		return nil, nil
	}
	snap := &Snapshot{
		Instance:   instance,
		BaseRound:  newBase,
		BaseHash:   baseHash,
		StateRound: stateRound,
		State:      state,
	}
	if err := WriteSnapshot(snapPath, *snap); err != nil {
		return nil, err
	}
	l.snapBase = newBase
	if err := l.rollLocked(l.tip + 1); err != nil {
		return nil, err
	}
	if err := l.dropThroughLocked(newBase); err != nil {
		return nil, err
	}
	return snap, nil
}

// ResetToBase re-anchors the log on a snapshot-transfer base: every segment
// is discarded and the next appendable round becomes newBase+1. The caller
// must have written the snapshot covering rounds ≤ newBase first
// (WriteSnapshot is atomic) — a crash after the snapshot write but before or
// during the unlinks is safe because replay skims frames at rounds ≤ base.
// newBase must be strictly above the current tip: snapshot transfer only
// installs state from beyond the local horizon, so nothing durable is lost.
func (l *BlockLog) ResetToBase(newBase uint64) error {
	// Pending batches are written out first: their waiters must be acked
	// before the files go away under them.
	defer l.quiesce()()
	if l.failed != nil {
		return l.failed
	}
	if newBase <= l.tip {
		return fmt.Errorf("store: reset to base %d at or below tip %d", newBase, l.tip)
	}
	if err := l.rollLocked(newBase + 1); err != nil {
		return err
	}
	l.base, l.snapBase, l.tip = newBase, newBase, newBase
	return l.dropThroughLocked(newBase)
}

// ErrCompacted reports a read below the log's compaction base: those rounds
// were checkpointed away and survive only in the snapshot.
var ErrCompacted = errors.New("store: rounds compacted away")

// ReadFrom returns up to max consecutive definite blocks starting at round
// `from`, read back from the on-disk log — the historical half of a client
// cursor replay (internal/clientapi). Only what is physically in the files is
// returned: with group commit, rounds whose batch has not flushed yet are
// simply absent and the caller tops up from the in-memory chain. A `from` at
// or below the compaction base returns ErrCompacted (the retained tail no
// longer covers the cursor), as does a read that loses its segment to a
// concurrent checkpoint; a `from` beyond the log's content returns an empty
// slice.
//
// The scan reads through independent handles (the page cache keeps them
// coherent with the append handle), so readers never contend with the append
// path for file position.
func (l *BlockLog) ReadFrom(from uint64, max int) ([]types.Block, error) {
	if max <= 0 {
		return nil, nil
	}
	l.mu.Lock()
	base := l.base
	failed := l.failed
	// Start in the last segment that begins at or below `from`.
	first := sort.Search(len(l.segs), func(i int) bool { return l.segs[i].start > from }) - 1
	if first < 0 {
		first = 0
	}
	segs := append([]segment(nil), l.segs[first:]...)
	off := int64(0)
	if l.readCache.next == from && l.readCache.seg == segs[0].path {
		off = l.readCache.off
	}
	l.mu.Unlock()
	if failed != nil {
		return nil, failed
	}
	if from <= base {
		return nil, fmt.Errorf("%w: round %d at or below base %d", ErrCompacted, from, base)
	}
	var blocks []types.Block
	next := from
	i := 0
	for {
		consumed, err := readSegment(segs[i].path, off, &next, &blocks, max)
		if err != nil {
			return nil, err
		}
		off += consumed
		if len(blocks) >= max || i == len(segs)-1 {
			break
		}
		i, off = i+1, 0
	}
	// Round `next` is (or will be appended) exactly at off in segs[i] — or
	// at the start of a later segment, which the next call finds by round —
	// so a sequential reader can resume here.
	l.mu.Lock()
	l.readCache.seg, l.readCache.next, l.readCache.off = segs[i].path, next, off
	l.mu.Unlock()
	return blocks, nil
}

// readSegment appends to blocks the consecutive rounds from *next on that
// the segment at path holds from byte off, up to max blocks in all, and
// returns how many bytes it consumed.
func readSegment(path string, off int64, next *uint64, blocks *[]types.Block, max int) (int64, error) {
	r, err := os.Open(path)
	if errors.Is(err, fs.ErrNotExist) {
		return 0, fmt.Errorf("%w: segment of round %d unlinked by a checkpoint", ErrCompacted, *next)
	}
	if err != nil {
		return 0, fmt.Errorf("store: read open: %w", err)
	}
	defer r.Close()
	if _, err := r.Seek(off, io.SeekStart); err != nil {
		return 0, fmt.Errorf("store: read seek: %w", err)
	}
	consumed := scanFrames(r, func(payload []byte) scanAction {
		d := types.NewDecoder(payload)
		blk := types.DecodeBlock(d)
		if d.Finish() != nil {
			return scanStopExclude
		}
		round := blk.Signed.Header.Round
		if round < *next {
			return scanContinue // skim the prefix below the cursor
		}
		if round != *next {
			return scanStopExclude
		}
		*blocks = append(*blocks, blk)
		*next++
		if len(*blocks) >= max {
			return scanStopInclude
		}
		return scanContinue
	})
	return consumed, nil
}

// Close drains any pending group-commit batches, flushes, and closes the
// log. Callers must have stopped appending.
func (l *BlockLog) Close() error {
	if l.gc != nil {
		l.gc.stopAndFlush()
	}
	defer l.quiesce()()
	if err := l.f.Sync(); err != nil {
		l.f.Close()
		return err
	}
	return l.f.Close()
}
