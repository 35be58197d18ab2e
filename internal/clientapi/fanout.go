package clientapi

// The fan-out hub: the one engine behind every block stream. A Server runs
// one hub for all of its SUBSCRIBE connections; an in-process stream
// (StreamLocal) runs its own for the stream's lifetime. Either way a hub is
// one delivery tap, one bounded ring of delivered blocks, shared replay
// cohorts below it, and sinks that never block.
//
// Architecture (three tiers per subscriber):
//
//   - live: the subscriber's cursor sits at the hub frontier. Every
//     delivered block is offered to every live subscriber's sink; a
//     connection's sink asks the hub for the block's BLOCK frame, marshaled
//     exactly once and shared by every connection (frames are immutable
//     after finishFrame, so sharing needs no refcount). A full sink moves
//     the subscriber to the lagging set — nothing in the live tier ever
//     blocks, so one stalled subscriber cannot delay the others.
//   - lagging: the cursor is behind the frontier but still inside the hub
//     ring. Once the sink drains (Unpark), the pump pushes the missed ring
//     frames — still the shared encodings — and the subscriber rejoins the
//     live tier.
//   - cohort: the cursor fell below the ring (or the subscriber arrived
//     with a historical cursor). Subscribers are grouped into replay
//     cohorts by cursor segment; each cohort runs ONE sweep of
//     Node.ReadDefinite per pass and feeds every member from the same read
//     batch and the same encoding. A member that reaches the ring is
//     promoted back toward the live tier; promotion happens under the hub
//     lock, serialized with ring appends, so the handoff has no gap.
//
// Filters (wire protocol 1.3) are evaluated once per block per distinct
// filter — a per-frame client-id set plus a per-frame verdict cache — and a
// suppressed block just advances the subscriber's cursor.

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/types"
)

// hubRingCap bounds the ring of delivered blocks a hub keeps, and so the
// memory of an in-process stream: a subscriber more than hubRingCap blocks
// behind the frontier is served from a replay cohort instead.
const hubRingCap = 1024

// hubSegSize is the width, in merged positions, of one replay-cohort
// segment: subscribers whose cursors fall in the same segment share one
// historical sweep.
const hubSegSize = 256

// replayBatch is how many blocks one historical read fetches per worker.
const replayBatch = 64

// FanoutStats is a snapshot of a hub's counters (Server.Fanout).
type FanoutStats struct {
	// FramesEncoded / BytesEncoded count BLOCK frame marshals: one per
	// delivered block at the hub, plus one per block a replay cohort reads
	// below the ring. FramesShared / BytesSent count frame handoffs to
	// subscriber send queues — with N live subscribers, BytesSent ≈
	// N × BytesEncoded (the sharing ratio).
	FramesEncoded uint64
	BytesEncoded  uint64
	FramesShared  uint64
	BytesSent     uint64
	// BlocksFiltered counts per-subscriber block deliveries a 1.3 filter
	// suppressed (the cursor advanced without a frame being sent).
	BlocksFiltered uint64
	// CohortReplays counts shared historical read batches (one ReadDefinite
	// call serving a whole cohort).
	CohortReplays uint64
	// Demotions counts subscribers that fell out of the ring and were moved
	// to a replay cohort; Promotions counts the reverse.
	Demotions  uint64
	Promotions uint64
	// OverflowDisconnects counts sessions the server closed because the
	// control-frame headroom overflowed (a client that stopped draining).
	OverflowDisconnects uint64
	// Current tier occupancy.
	LiveSubs    int
	LaggingSubs int
	CohortSubs  int
	Cohorts     int
}

// fanoutSink is one subscriber's delivery surface. TrySend runs under the
// hub lock and must not block: false parks the subscriber, and the hub
// retries from the shared ring (or the subscriber's replay cohort) after
// Unpark. End reports a terminal stream error (compacted cursor, read
// failure); the hub forgets the subscriber before calling it.
type fanoutSink interface {
	TrySend(f *hubFrame) bool
	End(err error)
}

// Subscriber tiers.
const (
	tierLive = iota
	tierLagging
	tierCohort
	tierGone
)

// hubSub is one hub subscription.
type hubSub struct {
	sink   fanoutSink
	filter Filter

	// parked is set when the subscriber's sink refused a frame and cleared
	// by Unpark once the sink drains; the hub skips parked subscribers
	// instead of re-trying into a known-full queue.
	parked atomic.Bool

	// Guarded by Hub.mu.
	pos  uint64 // next merged position wanted
	tier int
	coh  *cohort
}

// hubFrame is one delivered block with its shared encoding and its lazily
// built filter caches.
type hubFrame struct {
	pos    uint64
	worker uint32
	blk    types.Block
	frame  []byte // shared BLOCK frame; nil until the first offer needs it

	// Filter caches, built under Hub.mu on first use: clients answers
	// client-id-only filters in O(1) per subscriber, verdicts memoizes every
	// other filter shape so each distinct filter scans the body once.
	clients  map[uint64]struct{}
	verdicts map[string]bool
}

// match evaluates the filter against this frame, memoized. Hub.mu held.
func (f *hubFrame) match(flt Filter) bool {
	if flt.Empty() {
		return true
	}
	if flt.HasClient && len(flt.TxPrefix) == 0 {
		if f.clients == nil {
			f.clients = make(map[uint64]struct{}, len(f.blk.Body.Txs))
			for i := range f.blk.Body.Txs {
				f.clients[f.blk.Body.Txs[i].Client] = struct{}{}
			}
		}
		_, ok := f.clients[flt.Client]
		return ok
	}
	k := flt.key()
	if v, ok := f.verdicts[k]; ok {
		return v
	}
	v := flt.MatchBlock(&f.blk.Body)
	if f.verdicts == nil {
		f.verdicts = make(map[string]bool)
	}
	f.verdicts[k] = v
	return v
}

// Hub is the fan-out engine behind every block stream: one
// SubscribeDeliver tap, each BLOCK frame encoded at most once and shared
// across every subscriber, cold subscribers grouped into shared replay
// cohorts.
type Hub struct {
	node    Node
	workers int
	ringCap int
	logf    func(format string, args ...any)

	framesEncoded, bytesEncoded   atomic.Uint64
	framesShared, bytesSent       atomic.Uint64
	blocksFiltered, cohortReplays atomic.Uint64
	demotions, promotions         atomic.Uint64
	overflowDisconnects           atomic.Uint64

	mu        sync.Mutex
	closed    bool
	cancelTap func()
	started   bool // first delivery observed; ring positions are valid
	ring      []*hubFrame
	ringLo    uint64 // merged position of ring[0]
	ringHi    uint64 // next position to append (ringLo + len(ring))
	fanned    uint64 // positions [ringLo, fanned) already offered to the live tier
	live      map[*hubSub]struct{}
	lagging   map[*hubSub]struct{}
	cohorts   map[uint64]*cohort // segment → cohort
	// segCache retains the frame caches of recently dissolved cohorts
	// (bounded to segCacheKeep segments) so a later wave of subscribers on
	// the same history does not re-read and re-encode it.
	segCache map[uint64]map[uint64]*hubFrame

	pumpWake chan struct{}
	closeCh  chan struct{}
	wg       sync.WaitGroup
}

// NewHub creates a hub for node and attaches its delivery tap; logf, when
// set, receives hub diagnostics. Close the hub to detach.
func NewHub(node Node, logf func(format string, args ...any)) *Hub {
	h := &Hub{
		node:     node,
		workers:  node.Workers(),
		ringCap:  hubRingCap,
		logf:     logf,
		live:     make(map[*hubSub]struct{}),
		lagging:  make(map[*hubSub]struct{}),
		cohorts:  make(map[uint64]*cohort),
		segCache: make(map[uint64]map[uint64]*hubFrame),
		pumpWake: make(chan struct{}, 1),
		closeCh:  make(chan struct{}),
	}
	h.cancelTap = node.SubscribeDeliver(h.onDeliver)
	h.wg.Add(1)
	go h.pump()
	return h
}

// Close detaches the delivery tap and stops the pump and every cohort.
// Active subscribers are forgotten without a terminal event (their
// connections or streams are being torn down alongside).
func (h *Hub) Close() {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return
	}
	h.closed = true
	cancel := h.cancelTap
	h.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	close(h.closeCh)
	h.wg.Wait()
}

// Stats snapshots the hub counters.
func (h *Hub) Stats() FanoutStats {
	s := FanoutStats{
		FramesEncoded:       h.framesEncoded.Load(),
		BytesEncoded:        h.bytesEncoded.Load(),
		FramesShared:        h.framesShared.Load(),
		BytesSent:           h.bytesSent.Load(),
		BlocksFiltered:      h.blocksFiltered.Load(),
		CohortReplays:       h.cohortReplays.Load(),
		Demotions:           h.demotions.Load(),
		Promotions:          h.promotions.Load(),
		OverflowDisconnects: h.overflowDisconnects.Load(),
	}
	h.mu.Lock()
	s.LiveSubs = len(h.live)
	s.LaggingSubs = len(h.lagging)
	for _, c := range h.cohorts {
		s.CohortSubs += len(c.members)
	}
	s.Cohorts = len(h.cohorts)
	h.mu.Unlock()
	return s
}

// Subscribe registers a subscriber from cursor cur. A cursor inside the
// ring joins the live tier immediately (catching up from shared frames); a
// historical cursor joins the replay cohort of its segment. The returned
// subscription is detached with Unsubscribe.
func (h *Hub) Subscribe(cur Cursor, flt Filter, sink fanoutSink) (*hubSub, error) {
	if int(cur.Worker) >= h.workers {
		return nil, fmt.Errorf("clientapi: cursor worker %d out of range (ω=%d)", cur.Worker, h.workers)
	}
	sub := &hubSub{sink: sink, filter: flt, pos: cur.pos(h.workers)}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return nil, errors.New("clientapi: server is closed")
	}
	if h.started && sub.pos >= h.ringLo && sub.pos <= h.ringHi {
		sub.tier = tierLagging
		h.lagging[sub] = struct{}{}
		h.catchUpLocked(sub)
	} else {
		h.cohortAddLocked(sub)
	}
	return sub, nil
}

// Unsubscribe detaches sub. After it returns, the hub makes no further
// TrySend or End call for this subscription.
func (h *Hub) Unsubscribe(sub *hubSub) {
	if sub == nil {
		return
	}
	h.mu.Lock()
	h.dropLocked(sub)
	h.mu.Unlock()
}

// Unpark tells the hub that sub's sink drained: frames the subscriber missed
// while parked are worth retrying. Cheap when the subscriber is not parked
// (one atomic load).
func (h *Hub) Unpark(sub *hubSub) {
	if sub == nil || !sub.parked.Load() {
		return
	}
	sub.parked.Store(false)
	h.mu.Lock()
	var coh *cohort
	switch sub.tier {
	case tierLagging:
		// retried by the pump
	case tierCohort:
		coh = sub.coh
	}
	h.mu.Unlock()
	poke(h.pumpWake)
	if coh != nil {
		poke(coh.wake)
	}
}

// NoteOverflowDisconnect records a session closed for an overflowing send
// queue (the server calls it; the counter lives with the fan-out health
// metrics).
func (h *Hub) NoteOverflowDisconnect() { h.overflowDisconnects.Add(1) }

// poke wakes the goroutine waiting on ch (capacity 1) without blocking; a
// wake-up already pending absorbs this one.
func poke(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

func (h *Hub) dropLocked(sub *hubSub) {
	switch sub.tier {
	case tierLive:
		delete(h.live, sub)
	case tierLagging:
		delete(h.lagging, sub)
	case tierCohort:
		if sub.coh != nil {
			delete(sub.coh.members, sub)
		}
	}
	sub.tier = tierGone
	sub.coh = nil
}

// cohortAddLocked files sub into the replay cohort covering its cursor,
// creating the cohort (and its sweep goroutine) on first use.
func (h *Hub) cohortAddLocked(sub *hubSub) {
	seg := sub.pos / hubSegSize
	c := h.cohorts[seg]
	if c == nil {
		c = &cohort{
			hub:     h,
			seg:     seg,
			members: make(map[*hubSub]struct{}),
			wake:    make(chan struct{}, 1),
		}
		// Adopt the cache of a previously dissolved cohort on this segment,
		// if retained: the new wave reuses its reads and encodings.
		if fc := h.segCache[seg]; fc != nil {
			c.cache = fc
			delete(h.segCache, seg)
		} else {
			c.cache = make(map[uint64]*hubFrame)
		}
		h.cohorts[seg] = c
		h.wg.Add(1)
		go c.run()
	}
	c.members[sub] = struct{}{}
	sub.tier = tierCohort
	sub.coh = c
	poke(c.wake)
}

// segCacheKeep bounds how many dissolved-cohort frame caches the hub
// retains. Waves of late subscribers tend to land on the most recent
// segments, so a small number is enough to make successive waves reuse
// the previous wave's reads and encodings.
const segCacheKeep = 2

// donateCacheLocked stores a dissolving cohort's frame cache for reuse by
// the next cohort on the same segment, evicting the oldest retained
// segment when over the retention bound.
func (h *Hub) donateCacheLocked(c *cohort) {
	if len(c.cache) == 0 {
		return
	}
	h.segCache[c.seg] = c.cache
	for len(h.segCache) > segCacheKeep {
		lowest := uint64(0)
		first := true
		for seg := range h.segCache {
			if first || seg < lowest {
				lowest = seg
				first = false
			}
		}
		delete(h.segCache, lowest)
	}
}

// frameBytesLocked returns the frame's shared encoding, marshaling it on
// first use (once per block, however many connections receive it).
func (h *Hub) frameBytesLocked(f *hubFrame) []byte {
	if f.frame == nil {
		f.frame = marshalBlock(blockMsg{Worker: f.worker, Block: f.blk})
		h.framesEncoded.Add(1)
		h.bytesEncoded.Add(uint64(len(f.frame)))
	}
	return f.frame
}

// offerLocked delivers one frame to one subscriber: a filtered-out block
// advances the cursor silently; a refused send parks the subscriber (and
// moves a live one to the lagging set).
func (h *Hub) offerLocked(sub *hubSub, f *hubFrame) {
	if !f.match(sub.filter) {
		sub.pos++
		h.blocksFiltered.Add(1)
		return
	}
	// Parked before the offer, not after a refusal: a sink that drains
	// between refusing and the mark would find nothing to Unpark, and the
	// subscriber would stay parked for good.
	sub.parked.Store(true)
	if sub.sink.TrySend(f) {
		sub.parked.Store(false)
		sub.pos++
		return
	}
	if sub.tier == tierLive {
		delete(h.live, sub)
		h.lagging[sub] = struct{}{}
		sub.tier = tierLagging
	}
}

// catchUpLocked pushes the ring frames a lagging subscriber is missing. All
// pushed → live tier; cursor below the ring → demoted to a replay cohort;
// queue still full → stays lagging (parked).
func (h *Hub) catchUpLocked(sub *hubSub) {
	if !h.started {
		return
	}
	if sub.pos < h.ringLo {
		delete(h.lagging, sub)
		h.demotions.Add(1)
		h.cohortAddLocked(sub)
		return
	}
	for sub.pos < h.ringHi {
		was := sub.pos
		h.offerLocked(sub, h.ring[sub.pos-h.ringLo])
		if sub.pos == was {
			return // parked again; Unpark retries
		}
	}
	if sub.tier == tierLagging {
		delete(h.lagging, sub)
		h.live[sub] = struct{}{}
		sub.tier = tierLive
	}
}

// onDeliver is the hub's single tap on the node's merged definite stream.
// It runs on the delivery goroutine: append to the ring and wake the pump
// and the cohorts (the frontier moved) — never block, and never encode.
// The BLOCK frame is marshaled lazily by frameBytesLocked on the first
// offer (pump or cohort goroutine), so a node with no subscribers pays
// nothing per delivery beyond a ring append.
func (h *Hub) onDeliver(w uint32, blk types.Block) {
	pos := (blk.Signed.Header.Round-1)*uint64(h.workers) + uint64(w)
	hf := &hubFrame{pos: pos, worker: w, blk: blk}

	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return
	}
	if !h.started {
		h.started = true
		h.ringLo, h.ringHi, h.fanned = pos, pos, pos
	}
	if pos != h.ringHi {
		// The delivery sequence broke (a tap attached mid-delivery can miss
		// one event). Reset the ring at the new position and send everyone
		// through cohort replay, which re-reads the gap from the log.
		if h.logf != nil {
			h.logf("clientapi: fan-out ring gap (delivery at merged pos %d, ring frontier %d); demoting live subscribers to replay", pos, h.ringHi)
		}
		h.resetRingLocked(pos)
	}
	h.ring = append(h.ring, hf)
	h.ringHi++
	trimmed := false
	for len(h.ring) > h.ringCap {
		h.ring[0] = nil
		h.ring = h.ring[1:]
		h.ringLo++
		trimmed = true
	}
	if h.fanned < h.ringLo {
		h.fanned = h.ringLo
	}
	if trimmed {
		// Maintain the tier invariant eagerly: a parked subscriber the ring
		// just trimmed past would otherwise linger in the lagging tier until
		// its sink drains — which for a stalled client is never. Move
		// it to cohort replay now; the cohort skips it while parked, so a
		// stalled subscriber costs nothing there.
		for sub := range h.lagging {
			if sub.pos < h.ringLo {
				delete(h.lagging, sub)
				h.demotions.Add(1)
				h.cohortAddLocked(sub)
			}
		}
	}
	wakes := make([]*cohort, 0, len(h.cohorts))
	for _, c := range h.cohorts {
		wakes = append(wakes, c)
	}
	h.mu.Unlock()

	poke(h.pumpWake)
	for _, c := range wakes {
		poke(c.wake)
	}
}

// resetRingLocked restarts the ring at pos and demotes every ring-tier
// subscriber to cohort replay.
func (h *Hub) resetRingLocked(pos uint64) {
	h.ring = nil
	h.ringLo, h.ringHi, h.fanned = pos, pos, pos
	for sub := range h.live {
		delete(h.live, sub)
		h.demotions.Add(1)
		h.cohortAddLocked(sub)
	}
	for sub := range h.lagging {
		delete(h.lagging, sub)
		h.demotions.Add(1)
		h.cohortAddLocked(sub)
	}
}

// pump fans newly delivered ring frames to the live tier and retries
// lagging subscribers whose sinks have drained. One goroutine per
// hub: the delivery path only appends and signals.
func (h *Hub) pump() {
	defer h.wg.Done()
	for {
		select {
		case <-h.pumpWake:
		case <-h.closeCh:
			return
		}
		h.mu.Lock()
		for h.fanned < h.ringHi {
			hf := h.ring[h.fanned-h.ringLo]
			for sub := range h.live {
				if sub.pos > hf.pos {
					continue // already served by a catch-up push
				}
				if sub.pos < hf.pos {
					// The ring trimmed frames this subscriber never got
					// (pump starvation); route through catch-up/demotion.
					delete(h.live, sub)
					h.lagging[sub] = struct{}{}
					sub.tier = tierLagging
					continue
				}
				h.offerLocked(sub, hf)
			}
			h.fanned++
		}
		for sub := range h.lagging {
			if sub.parked.Load() {
				continue
			}
			h.catchUpLocked(sub)
		}
		h.mu.Unlock()
	}
}

// cohort is one shared replay sweep: every subscriber whose cursor falls in
// segment seg ([seg·hubSegSize, (seg+1)·hubSegSize) in merged positions) is
// fed from the same ReadDefinite batches and the same per-block encoding.
type cohort struct {
	hub  *Hub
	seg  uint64
	wake chan struct{}

	// members is guarded by hub.mu.
	members map[*hubSub]struct{}

	// cache holds the frames of this segment already read and encoded, so
	// repeated sweep passes (members absorb only a send queue's worth of
	// frames per pass) reuse one encoding per block per cohort. Touched only
	// by the cohort goroutine; entries below every member's cursor are
	// evicted each pass, bounding it at hubSegSize frames.
	cache map[uint64]*hubFrame
}

// run is the cohort's sweep loop. Each pass sweeps once from the minimum
// unparked member cursor, then migrates members that crossed the segment
// end and promotes members the ring now covers. The cohort dissolves when
// its last member leaves.
func (c *cohort) run() {
	h := c.hub
	defer h.wg.Done()
	segEnd := (c.seg + 1) * hubSegSize
	queues := make([][]types.Block, h.workers)
	for {
		h.mu.Lock()
		if h.closed {
			h.mu.Unlock()
			return
		}
		if len(c.members) == 0 {
			if h.cohorts[c.seg] == c {
				delete(h.cohorts, c.seg)
			}
			h.donateCacheLocked(c)
			h.mu.Unlock()
			return
		}
		sweepFrom, active := uint64(0), false
		for m := range c.members {
			if m.parked.Load() {
				continue
			}
			if !active || m.pos < sweepFrom {
				sweepFrom = m.pos
			}
			active = true
		}
		h.mu.Unlock()
		// The cache is retained for the cohort's lifetime: later demotion
		// waves land below the current members' positions, so evicting
		// passed frames would force a re-read and re-encode per wave. It is
		// bounded by the segment size — sweeps never leave the segment.

		advanced, frontier, hitFrontier := false, uint64(0), false
		if active {
			advanced, frontier, hitFrontier = c.sweep(sweepFrom, segEnd, queues)
		}

		h.mu.Lock()
		if h.closed {
			h.mu.Unlock()
			return
		}
		moved := false
		for m := range c.members {
			if m.pos >= segEnd {
				// Crossed into the next segment: migrate to its cohort.
				delete(c.members, m)
				h.cohortAddLocked(m)
				moved = true
				continue
			}
			if m.parked.Load() {
				continue
			}
			if h.started && m.pos >= h.ringLo {
				// The shared ring covers the cursor: promote. Serialized
				// with ring appends by h.mu, so the handoff has no gap.
				delete(c.members, m)
				m.coh = nil
				m.tier = tierLagging
				h.lagging[m] = struct{}{}
				h.catchUpLocked(m)
				h.promotions.Add(1)
				moved = true
			} else if hitFrontier && !h.started && m.pos >= frontier {
				// Nothing was ever delivered since the hub attached and the
				// log is exhausted: the subscriber is at the frontier; the
				// first delivery will find it in the live tier.
				delete(c.members, m)
				m.coh = nil
				m.tier = tierLive
				h.live[m] = struct{}{}
				h.promotions.Add(1)
				moved = true
			}
		}
		h.mu.Unlock()

		if !advanced && !moved {
			select {
			case <-c.wake:
			case <-h.closeCh:
				return
			}
		}
	}
}

// sweep serves members in merged order from pos until the definite frontier
// or the segment end, reading history in shared replayBatch batches (ring
// frames are reused where the ring already covers a position). It returns
// whether any member advanced and, when it stopped at the frontier, where.
func (c *cohort) sweep(pos, segEnd uint64, queues [][]types.Block) (advanced bool, frontier uint64, hitFrontier bool) {
	h := c.hub
	workers := uint64(h.workers)
	for pos < segEnd {
		var hf *hubFrame
		h.mu.Lock()
		if h.closed || len(c.members) == 0 {
			h.mu.Unlock()
			return
		}
		if h.started && pos >= h.ringLo && pos < h.ringHi {
			hf = h.ring[pos-h.ringLo]
		}
		h.mu.Unlock()
		if hf == nil {
			hf = c.cache[pos]
		}
		if hf == nil {
			w := uint32(pos % workers)
			r := pos/workers + 1
			if len(queues[w]) == 0 || queues[w][0].Signed.Header.Round != r {
				queues[w] = nil
				blocks, err := h.node.ReadDefinite(w, r, replayBatch)
				if err != nil {
					// The position cannot be served (compacted history or a
					// read failure): end the members stuck at it; the rest
					// of the cohort continues from the new minimum.
					var ends []*hubSub
					h.mu.Lock()
					for m := range c.members {
						if m.pos == pos {
							delete(c.members, m)
							m.tier = tierGone
							m.coh = nil
							ends = append(ends, m)
						}
					}
					h.mu.Unlock()
					for _, m := range ends {
						m.sink.End(err)
					}
					advanced = true // membership changed; recompute before waiting
					return
				}
				if len(blocks) == 0 {
					return advanced, pos, true // definite frontier
				}
				h.cohortReplays.Add(1)
				queues[w] = blocks
			}
			blk := queues[w][0]
			queues[w] = queues[w][1:]
			hf = &hubFrame{pos: pos, worker: w, blk: blk}
			c.cache[pos] = hf
		}
		h.mu.Lock()
		for m := range c.members {
			if m.pos != pos || m.parked.Load() {
				continue
			}
			was := m.pos
			h.offerLocked(m, hf)
			if m.pos != was {
				advanced = true
			}
		}
		h.mu.Unlock()
		pos++
	}
	return advanced, 0, false
}
