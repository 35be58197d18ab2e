package flo

import (
	"sync"
	"sync/atomic"

	"repro/internal/types"
)

// merger implements §6.2's pre-defined-order collection: the k-th delivery
// cycle emits each worker's k-th definite block, worker 0 first. A single
// slow worker therefore delays the merged log — exactly the latency effect
// the paper discusses.
//
// The merge point is deliberately lock-light: each worker's pipeline
// (verify → apply → persist) runs upstream on its own goroutines and hands
// only finished blocks to enqueue, which never waits for a delivery in
// progress. Whoever wins emitMu.TryLock becomes the single emitter and
// drains every ready run in the global order; losers return immediately.
type merger struct {
	mu     sync.Mutex // guards queues, cursor, and floor
	emitMu sync.Mutex // held by the single active emitter (TryLock only)
	queues [][]types.Block
	cursor int // next worker to emit from
	// floor[w] is worker w's snapshot-install base: rounds at or below it
	// are covered by installed state and must never reach the merged
	// stream — an already-queued (or still in-pipeline) pre-install block
	// emitted after the install would reorder the stream the consumers
	// observed. Set only by advanceBase.
	floor []uint64
	// lastDelivered[w] is worker w's last merged-delivered round — the
	// explicit merged cursor. Seeded once at NewNode time with each
	// worker's replayed boot frontier, then written and read only by the
	// active emitter (under emitMu).
	lastDelivered []uint64
	deliver       func(uint32, types.Block)
	delivered     atomic.Uint64
	txs           atomic.Uint64
}

func newMerger(workers int, deliver func(uint32, types.Block)) *merger {
	return &merger{
		queues:        make([][]types.Block, workers),
		floor:         make([]uint64, workers),
		lastDelivered: make([]uint64, workers),
		deliver:       deliver,
	}
}

// advanceBase fences the merge point for a snapshot install at base: every
// queued block of worker w at or below base is purged, later arrivals at or
// below base are dropped at enqueue (floor), and the merged cursor jumps to
// base. emitMu is taken first so an emitter mid-delivery finishes before the
// fence — after advanceBase returns, no pre-install block of w can ever be
// emitted, so the install notification the caller fires next is a true
// linearization point in the merged stream.
func (m *merger) advanceBase(w uint32, base uint64) {
	m.emitMu.Lock()
	m.mu.Lock()
	if base > m.floor[w] {
		m.floor[w] = base
	}
	kept := m.queues[w][:0]
	for _, blk := range m.queues[w] {
		if blk.Signed.Header.Round > base {
			kept = append(kept, blk)
		}
	}
	m.queues[w] = kept
	m.mu.Unlock()
	if base > m.lastDelivered[w] {
		m.lastDelivered[w] = base
	}
	m.emitMu.Unlock()
}

// bump raises worker w's merged cursor to at least r after a snapshot
// install: the installed state covers w through r, and a checkpoint taken
// before w's first post-install delivery must not anchor its StateRound
// below that. Takes emitMu to serialize with the active emitter (installs
// are rare; the emitter is idle on a stranded node anyway).
func (m *merger) bump(w uint32, r uint64) {
	m.emitMu.Lock()
	if r > m.lastDelivered[w] {
		m.lastDelivered[w] = r
	}
	m.emitMu.Unlock()
}

// enqueue returns worker w's OnDecide callback: append the block, then
// drain without ever blocking on an in-flight delivery — per-worker
// pipelines stay decoupled all the way to the merge point.
func (m *merger) enqueue(w uint32) func(types.Block) {
	return func(blk types.Block) {
		m.mu.Lock()
		if blk.Signed.Header.Round <= m.floor[w] {
			// Pre-install straggler (see advanceBase): its rounds are
			// covered by the installed state.
			m.mu.Unlock()
			return
		}
		m.queues[w] = append(m.queues[w], blk)
		m.mu.Unlock()
		m.drain()
	}
}

// drain elects this goroutine the emitter if none is active and delivers
// every ready run. The post-unlock re-check closes the lost-wakeup window:
// an enqueue that appended its block while we held emitMu and then failed
// its own TryLock is guaranteed to be observed here, because its append
// happened before its failed TryLock, which happened before our unlock and
// therefore before our re-check.
func (m *merger) drain() {
	for {
		if !m.emitMu.TryLock() {
			return // the active emitter will observe the new block
		}
		for {
			m.mu.Lock()
			var ready []struct {
				w   uint32
				blk types.Block
			}
			for len(m.queues[m.cursor]) > 0 {
				next := m.queues[m.cursor][0]
				m.queues[m.cursor] = m.queues[m.cursor][1:]
				ready = append(ready, struct {
					w   uint32
					blk types.Block
				}{uint32(m.cursor), next})
				m.cursor = (m.cursor + 1) % len(m.queues)
			}
			m.mu.Unlock()
			if len(ready) == 0 {
				break
			}
			for _, r := range ready {
				m.lastDelivered[r.w] = r.blk.Signed.Header.Round
				m.delivered.Add(1)
				m.txs.Add(uint64(len(r.blk.Body.Txs)))
				m.deliver(r.w, r.blk)
			}
		}
		m.emitMu.Unlock()
		m.mu.Lock()
		again := len(m.queues[m.cursor]) > 0
		m.mu.Unlock()
		if !again {
			return
		}
	}
}
