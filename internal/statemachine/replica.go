package statemachine

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"repro/internal/types"
)

// Replica applies FLO's merged definite block stream to a StateBackend
// while tracking the last applied round per worker, making delivery
// idempotent: a block at a round the replica has already passed is skipped.
// That property is what snapshot restore needs — the restart path
// re-delivers every replayed post-snapshot block and the replica applies
// exactly the ones its checkpoint does not cover — and it also tolerates
// the at-least-once delivery a crash between persist and apply can produce.
//
// A Replica snapshot embeds both the backend state and the per-worker
// positions, so it plugs directly into flo's checkpointing (and because
// backend snapshots are canonical, a replica checkpointed on one backend
// restores onto the other).
//
// Beyond applying, the replica is the node's read surface: Get/Scan serve
// point and range reads, WaitCovered blocks until the applied frontier
// covers a receipt's (worker, round) — the consistency token that gives a
// client read-your-writes — and WatchKey streams changes to one key.
type Replica struct {
	mu    sync.Mutex
	state StateBackend
	last  map[uint32]uint64 // worker → last applied round
	// (curW, curRound) is the explicit merged-stream cursor: the position of
	// the most recent block applied in the merged (round, worker) order. It
	// rides in Snapshot, so a restored replica knows exactly where in the
	// merged stream its state sits — the property flo needs to checkpoint
	// state with ω > 1.
	curW     uint32
	curRound uint64

	// frontier is closed and replaced on every position advance; WaitCovered
	// blocks on it.
	frontier chan struct{}
	watchers map[string][]*watcher
}

// NewReplica returns an empty replica over the in-memory map backend.
func NewReplica() *Replica {
	return NewReplicaWith(NewKV())
}

// NewReplicaWith returns an empty replica over the given backend.
func NewReplicaWith(b StateBackend) *Replica {
	return &Replica{
		state:    b,
		last:     make(map[uint32]uint64),
		frontier: make(chan struct{}),
		watchers: make(map[string][]*watcher),
	}
}

// State exposes the underlying backend (read access).
func (r *Replica) State() StateBackend { return r.state }

// KV exposes the underlying store when the replica runs on the in-memory
// backend; it returns nil for other backends. Prefer State.
func (r *Replica) KV() *KV {
	kv, _ := r.state.(*KV)
	return kv
}

// Position returns the last applied round of worker w.
func (r *Replica) Position(w uint32) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.last[w]
}

// Cursor returns the merged-stream position of the most recently applied
// block: the (worker, round) pair that is maximal in the merged
// (round, worker) order among everything this replica has applied. A zero
// round means nothing was applied yet.
func (r *Replica) Cursor() (worker uint32, round uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.curW, r.curRound
}

// Get returns the current value of key from the backend.
func (r *Replica) Get(key string) ([]byte, bool) { return r.state.Get(key) }

// Scan returns up to max entries with begin <= key < end in ascending key
// order from the backend.
func (r *Replica) Scan(begin, end string, max int) []Entry {
	return r.state.Scan(begin, end, max)
}

// Covered reports whether the replica has applied worker w's round. A zero
// round is always covered (read whatever is current).
func (r *Replica) Covered(w uint32, round uint64) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return round == 0 || r.last[w] >= round
}

// WaitCovered blocks until the replica's applied frontier covers
// (w, round) — the consistency barrier behind receipt-anchored reads: a
// client that submits, takes the commit Receipt, and reads with its token
// is guaranteed to observe its own write.
func (r *Replica) WaitCovered(ctx context.Context, w uint32, round uint64) error {
	for {
		r.mu.Lock()
		if round == 0 || r.last[w] >= round {
			r.mu.Unlock()
			return nil
		}
		ch := r.frontier
		r.mu.Unlock()
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-ch:
		}
	}
}

// Deliver applies one definite block from worker w, skipping blocks at or
// below the replica's position for that worker. It reports whether the
// block was applied. r.mu is held across the position update and the
// applies, so a concurrent Snapshot never captures a position whose
// transactions are only partially in the backend.
func (r *Replica) Deliver(w uint32, blk types.Block) bool {
	round := blk.Signed.Header.Round
	r.mu.Lock()
	defer r.mu.Unlock()
	if round <= r.last[w] {
		return false
	}
	// Resolve which watched keys this block may touch before applying, so
	// the post-apply reads see exactly this block's effect.
	var touched []string
	if len(r.watchers) > 0 {
		seen := make(map[string]bool)
		for i := range blk.Body.Txs {
			for _, k := range TxKeys(blk.Body.Txs[i].Payload) {
				if _, watched := r.watchers[k]; watched && !seen[k] {
					seen[k] = true
					touched = append(touched, k)
				}
			}
		}
	}
	r.state.ApplyBatch(blk.Body.Txs)
	r.last[w] = round
	if round > r.curRound || (round == r.curRound && w > r.curW) {
		r.curW, r.curRound = w, round
	}
	close(r.frontier)
	r.frontier = make(chan struct{})
	for _, k := range touched {
		v, ok := r.state.Get(k)
		upd := KeyUpdate{Key: k, Value: v, Exists: ok, Worker: r.curW, Round: r.curRound}
		for _, wt := range r.watchers[k] {
			wt.offer(upd)
		}
	}
	return true
}

// KeyUpdate is one observed change of a watched key. Worker/Round is the
// replica's merged cursor when the update was captured — usable as a
// consistency token for follow-up reads.
type KeyUpdate struct {
	Key    string
	Value  []byte
	Exists bool
	Worker uint32
	Round  uint64
}

// watcher is one WatchKey registration. Delivery coalesces: the replica's
// apply path writes the latest update into a slot without ever blocking,
// and a pump goroutine drains the slot into the subscriber's channel —
// a slow consumer sees the newest value, not an unbounded backlog.
type watcher struct {
	key    string
	mu     sync.Mutex
	latest KeyUpdate
	has    bool
	wake   chan struct{}
	done   chan struct{}
	out    chan KeyUpdate
}

func (wt *watcher) offer(upd KeyUpdate) {
	wt.mu.Lock()
	wt.latest, wt.has = upd, true
	wt.mu.Unlock()
	select {
	case wt.wake <- struct{}{}:
	default:
	}
}

func (wt *watcher) pump() {
	defer close(wt.out)
	for {
		select {
		case <-wt.done:
			return
		case <-wt.wake:
		}
		wt.mu.Lock()
		upd, has := wt.latest, wt.has
		wt.has = false
		wt.mu.Unlock()
		if !has {
			continue
		}
		select {
		case wt.out <- upd:
		case <-wt.done:
			return
		}
	}
}

// WatchKey registers a watch on key: the returned channel first yields the
// key's current state (captured atomically with registration, so no change
// is missed in between) and then every subsequent change, coalesced to the
// latest value when the consumer lags. cancel unregisters the watch and
// closes the channel.
func (r *Replica) WatchKey(key string) (<-chan KeyUpdate, func()) {
	wt := &watcher{
		key:  key,
		wake: make(chan struct{}, 1),
		done: make(chan struct{}),
		out:  make(chan KeyUpdate, 1),
	}
	r.mu.Lock()
	r.watchers[key] = append(r.watchers[key], wt)
	v, ok := r.state.Get(key)
	wt.offer(KeyUpdate{Key: key, Value: v, Exists: ok, Worker: r.curW, Round: r.curRound})
	r.mu.Unlock()
	go wt.pump()
	var once sync.Once
	cancel := func() {
		once.Do(func() {
			r.mu.Lock()
			ws := r.watchers[key]
			for i, w := range ws {
				if w == wt {
					r.watchers[key] = append(ws[:i], ws[i+1:]...)
					break
				}
			}
			if len(r.watchers[key]) == 0 {
				delete(r.watchers, key)
			}
			r.mu.Unlock()
			close(wt.done)
		})
	}
	return wt.out, cancel
}

// Snapshot serializes the replica deterministically: the merged-stream
// cursor, the per-worker positions, and the backend snapshot, captured
// atomically with respect to Deliver. The encoding is canonical (workers
// sorted, backend bytes canonical), so restoring a snapshot and
// re-serializing yields byte-identical output — on either backend.
func (r *Replica) Snapshot() []byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	workers := make([]uint32, 0, len(r.last))
	for w := range r.last {
		workers = append(workers, w)
	}
	sort.Slice(workers, func(i, j int) bool { return workers[i] < workers[j] })
	e := types.NewEncoder(64)
	e.Uint32(r.curW)
	e.Uint64(r.curRound)
	e.Uint32(uint32(len(workers)))
	for _, w := range workers {
		e.Uint32(w)
		e.Uint64(r.last[w])
	}
	e.Bytes32(r.state.Snapshot())
	return e.Bytes()
}

// decodeReplicaSnapshot parses a Replica snapshot into its cursor,
// per-worker positions, and backend payload.
func decodeReplicaSnapshot(snap []byte) (curW uint32, curRound uint64, last map[uint32]uint64, stateSnap []byte, err error) {
	d := types.NewDecoder(snap)
	curW = d.Uint32()
	curRound = d.Uint64()
	n := d.Uint32()
	// A position takes 12 bytes (worker, round): see decodeSnapshot.
	if d.Err() != nil || uint64(n)*12 > uint64(d.Len()) {
		return 0, 0, nil, nil, fmt.Errorf("statemachine: corrupt replica snapshot header")
	}
	last = make(map[uint32]uint64, n)
	for i := uint32(0); i < n && d.Err() == nil; i++ {
		w := d.Uint32()
		last[w] = d.Uint64()
	}
	stateSnap = d.Bytes32()
	if err := d.Finish(); err != nil {
		return 0, 0, nil, nil, fmt.Errorf("statemachine: corrupt replica snapshot: %w", err)
	}
	return curW, curRound, last, stateSnap, nil
}

// SnapshotPositions returns the per-worker applied positions recorded in a
// Replica snapshot, without restoring it — the transfer path uses this to
// verify a donated snapshot's claimed frontier before installing anything.
func SnapshotPositions(snap []byte) (map[uint32]uint64, error) {
	_, _, last, _, err := decodeReplicaSnapshot(snap)
	return last, err
}

// Reset restores a Replica snapshot into a live replica in place: the
// backend contents are replaced, the positions jump to the snapshot's, and
// every blocked WaitCovered re-evaluates against the new frontier (watchers
// are re-offered their key's post-restore value). This is the
// snapshot-transfer install path — unlike RestoreReplicaInto it keeps the
// replica identity (and thus every Session holding it) intact.
func (r *Replica) Reset(snap []byte) error {
	curW, curRound, last, stateSnap, err := decodeReplicaSnapshot(snap)
	if err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.state.Restore(stateSnap); err != nil {
		return err
	}
	r.last, r.curW, r.curRound = last, curW, curRound
	close(r.frontier)
	r.frontier = make(chan struct{})
	for key, ws := range r.watchers {
		v, ok := r.state.Get(key)
		upd := KeyUpdate{Key: key, Value: v, Exists: ok, Worker: r.curW, Round: r.curRound}
		for _, wt := range ws {
			wt.offer(upd)
		}
	}
	return nil
}

// RestoreReplica rebuilds a replica over the in-memory backend from a
// Snapshot.
func RestoreReplica(snap []byte) (*Replica, error) {
	return RestoreReplicaInto(NewKV(), snap)
}

// RestoreReplicaInto rebuilds a replica from a Snapshot, loading the state
// into the given backend (whose previous contents are replaced). A nil snap
// yields a fresh replica over the backend — the "no checkpoint yet" boot.
func RestoreReplicaInto(b StateBackend, snap []byte) (*Replica, error) {
	if snap == nil {
		return NewReplicaWith(b), nil
	}
	curW, curRound, last, stateSnap, err := decodeReplicaSnapshot(snap)
	if err != nil {
		return nil, err
	}
	if err := b.Restore(stateSnap); err != nil {
		return nil, err
	}
	r := NewReplicaWith(b)
	r.last, r.curW, r.curRound = last, curW, curRound
	return r, nil
}
