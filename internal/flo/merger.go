package flo

import (
	"sync"
	"sync/atomic"

	"repro/internal/types"
)

// mergeDepth bounds the blocks each worker may have queued for delivery. A
// worker that runs this far ahead of the slowest one (or of a blocked
// consumer) waits in its commit stage, and, once that fills too, in its
// round loop: a consumer that stops must stop consensus, not grow a heap.
const mergeDepth = 256

// merger implements §6.2's pre-defined-order collection: the k-th delivery
// cycle emits each worker's k-th definite block, worker 0 first. A single
// slow worker therefore delays the merged log — exactly the latency effect
// the paper discusses.
//
// Each worker's commit stage hands its finished blocks to enqueue; one
// delivery goroutine takes them in the global order and alone runs deliver
// (state apply, Config.Deliver, subscriber taps, checkpoints), so the merged
// cursor has one writer.
type merger struct {
	queues []chan types.Block // per worker, in round order
	// emitMu is held by the delivery goroutine around each delivery. A
	// snapshot install takes it (advanceBase, bump) to fence against that
	// one goroutine; it guards floor and lastDelivered.
	emitMu sync.Mutex
	// floor[w] is worker w's snapshot-install base: rounds at or below it
	// are covered by installed state and must never reach the merged
	// stream — an already-queued (or still in-pipeline) pre-install block
	// emitted after the install would reorder the stream the consumers
	// observed. Set only by advanceBase.
	floor []uint64
	// lastDelivered[w] is worker w's last merged-delivered round — the
	// explicit merged cursor. Seeded once at NewNode time with each
	// worker's replayed boot frontier, then advanced by the delivery
	// goroutine (and by a snapshot install).
	lastDelivered []uint64
	deliver       func(uint32, types.Block)
	delivered     atomic.Uint64
	txs           atomic.Uint64

	unblockOnce sync.Once
	unblocked   chan struct{} // closed by unblock: enqueue stops waiting for room
	finishOnce  sync.Once
	finish      chan struct{} // closed by stop: deliver what is ready, then exit
	done        chan struct{} // closed when the delivery goroutine has exited; nil before start
}

func newMerger(workers int, deliver func(uint32, types.Block)) *merger {
	m := &merger{
		queues:        make([]chan types.Block, workers),
		floor:         make([]uint64, workers),
		lastDelivered: make([]uint64, workers),
		deliver:       deliver,
		unblocked:     make(chan struct{}),
		finish:        make(chan struct{}),
	}
	for w := range m.queues {
		m.queues[w] = make(chan types.Block, mergeDepth)
	}
	return m
}

// start launches the delivery goroutine.
func (m *merger) start() {
	m.done = make(chan struct{})
	go m.run()
}

// unblock is the first half of shutdown: from here on enqueue never waits
// for room, so commit stages can finish persisting whatever their round
// loops decided even when delivery can make no progress (a worker queue is
// full while the merged order waits for a worker that has stopped).
func (m *merger) unblock() {
	m.unblockOnce.Do(func() { close(m.unblocked) })
}

// stop is the second half, after the commit stages have drained: the
// delivery goroutine delivers every block that is queued and next in the
// merged order, then exits. What it leaves behind was persisted but not
// delivered; a restart re-delivers it from the log.
func (m *merger) stop() {
	m.unblock()
	m.finishOnce.Do(func() { close(m.finish) })
	if m.done != nil {
		<-m.done
	}
}

// advanceBase fences the merge point for a snapshot install at base: blocks
// of worker w at or below base, queued or still to arrive, are dropped when
// their turn comes (floor), and the merged cursor jumps to base. Taking
// emitMu lets a delivery in progress finish first — after advanceBase
// returns, no pre-install block of w can ever be emitted, so the install
// notification the caller fires next is a true linearization point in the
// merged stream.
func (m *merger) advanceBase(w uint32, base uint64) {
	m.emitMu.Lock()
	if base > m.floor[w] {
		m.floor[w] = base
	}
	if base > m.lastDelivered[w] {
		m.lastDelivered[w] = base
	}
	m.emitMu.Unlock()
}

// bump raises worker w's merged cursor to at least r after a snapshot
// install: the installed state covers w through r, and a checkpoint taken
// before w's first post-install delivery must not anchor its StateRound
// below that.
func (m *merger) bump(w uint32, r uint64) {
	m.emitMu.Lock()
	if r > m.lastDelivered[w] {
		m.lastDelivered[w] = r
	}
	m.emitMu.Unlock()
}

// enqueue returns worker w's OnDecide callback: queue the block for the
// delivery goroutine, waiting while the worker is mergeDepth blocks ahead.
// During shutdown it does not wait: a block that finds the queue full is
// dropped, and so is every later one, so the delivered stream stays a
// prefix of the merged order.
func (m *merger) enqueue(w uint32) func(types.Block) {
	q := m.queues[w]
	dropped := false // touched only by worker w's commit stage
	return func(blk types.Block) {
		if dropped {
			return
		}
		select {
		case q <- blk:
		case <-m.unblocked:
			select {
			case q <- blk:
			default:
				dropped = true
			}
		}
	}
}

// run is the delivery goroutine: take the next block of the worker whose
// turn it is, deliver it, move on to the next worker. After stop it goes on
// for as long as that next block is already queued.
func (m *merger) run() {
	defer close(m.done)
	for w := 0; ; {
		var blk types.Block
		select {
		case blk = <-m.queues[w]:
		case <-m.finish:
			select {
			case blk = <-m.queues[w]:
			default:
				return
			}
		}
		if m.emit(uint32(w), blk) {
			w = (w + 1) % len(m.queues)
		}
	}
}

// emit delivers worker w's block unless a snapshot install has covered it,
// and reports whether w's turn is used up.
func (m *merger) emit(w uint32, blk types.Block) bool {
	m.emitMu.Lock()
	defer m.emitMu.Unlock()
	round := blk.Signed.Header.Round
	if round <= m.floor[w] {
		return false // pre-install straggler (see advanceBase)
	}
	m.lastDelivered[w] = round
	m.delivered.Add(1)
	m.txs.Add(uint64(len(blk.Body.Txs)))
	m.deliver(w, blk)
	return true
}
