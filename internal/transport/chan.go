package transport

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/flcrypto"
)

// ChanConfig configures an in-process simulated network.
type ChanConfig struct {
	// N is the cluster size.
	N int
	// Latency models one-way propagation delay; nil means Zero.
	Latency LatencyModel
	// EgressBytesPerSec models each node's shared NIC egress bandwidth:
	// a broadcast of a B-byte block to n−1 peers occupies the sender's
	// egress for (n−1)·B / rate. Zero disables bandwidth modeling.
	// The paper's VMs have "up to 10 Gbps" links (§7).
	EgressBytesPerSec float64
	// Clock supplies time reads and delivery timers (nil means WallClock).
	// Simulated runs inject a seeded VirtualClock so the delivery schedule
	// is a deterministic function of the send sequence.
	Clock Clock
	// Faults, when non-nil, is consulted once per non-self Send for a
	// per-message fault decision (drop / duplicate / extra delay). The
	// simulation layer (internal/simnet) installs a seeded injector here;
	// SetFaultInjector swaps it at runtime.
	Faults FaultInjector
	// Trace, when non-nil, observes every delivery (including loopback)
	// synchronously at the instant the message enters the target mailbox.
	// Used by the determinism regression tests to capture delivery traces.
	Trace func(TraceEvent)
}

// Fault is one message's injected fate.
type Fault struct {
	// Drop discards the message at send time (indistinguishable, to the
	// protocols, from an arbitrarily slow link).
	Drop bool
	// Duplicate delivers the message twice; the copy draws its own latency.
	Duplicate bool
	// ExtraDelay is added to the latency model's draw. Per-link FIFO order
	// still holds (the link horizon clamps every message at or after its
	// predecessor), so this skews timing without violating the §3.1 no-
	// reorder link contract.
	ExtraDelay time.Duration
}

// FaultInjector decides per-message faults. Implementations must be safe for
// concurrent use; deterministic injectors serialize their RNG internally.
type FaultInjector interface {
	FaultFor(from, to flcrypto.NodeID, size int) Fault
}

// TraceEvent is one delivered message, as observed by ChanConfig.Trace.
type TraceEvent struct {
	At       time.Time
	From, To flcrypto.NodeID
	Payload  []byte // the delivered bytes; observers must not mutate
}

// Network is the restart-capable in-process fabric the cluster harnesses
// run on: endpoints, crash/heal, link filtering, and reattachment. Both
// ChanNetwork and simnet.SimNetwork implement it.
type Network interface {
	Endpoint(id flcrypto.NodeID) Endpoint
	Reattach(id flcrypto.NodeID) Endpoint
	Crash(id flcrypto.NodeID)
	Heal(id flcrypto.NodeID)
	SetLinkFilter(f func(from, to flcrypto.NodeID) bool)
	Close()
}

var _ Network = (*ChanNetwork)(nil)

// ChanNetwork is the in-process network used by tests, examples, and the
// benchmark harness. It plays the role of the paper's AWS fabric and adds
// the fault injection needed for §7.4: crashes, per-link omission, and
// partitions.
type ChanNetwork struct {
	cfg   ChanConfig
	eps   []*chanEndpoint
	now0  time.Time
	clock Clock

	mu        sync.RWMutex
	crashed   map[flcrypto.NodeID]bool
	blockLink func(from, to flcrypto.NodeID) bool
	faults    FaultInjector

	faultDrops atomic.Uint64
	faultDups  atomic.Uint64
}

// NewChanNetwork creates a network of cfg.N endpoints.
func NewChanNetwork(cfg ChanConfig) *ChanNetwork {
	if cfg.N <= 0 {
		panic(fmt.Sprintf("transport: invalid cluster size %d", cfg.N))
	}
	if cfg.Latency == nil {
		cfg.Latency = Zero
	}
	if cfg.Clock == nil {
		cfg.Clock = WallClock
	}
	n := &ChanNetwork{
		cfg:     cfg,
		clock:   cfg.Clock,
		now0:    cfg.Clock.Now(),
		crashed: make(map[flcrypto.NodeID]bool),
		faults:  cfg.Faults,
	}
	n.eps = make([]*chanEndpoint, cfg.N)
	for i := range n.eps {
		n.eps[i] = &chanEndpoint{
			net:   n,
			id:    flcrypto.NodeID(i),
			mbox:  newMailbox(),
			links: make([]linkQueue, cfg.N),
		}
	}
	return n
}

// Endpoint returns node id's attachment. It panics on out-of-range ids;
// membership is static in a permissioned deployment.
func (n *ChanNetwork) Endpoint(id flcrypto.NodeID) Endpoint {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.eps[id]
}

// endpoint resolves id's current attachment at delivery time, so senders
// never hold a reference to a pre-restart endpoint.
func (n *ChanNetwork) endpoint(id flcrypto.NodeID) *chanEndpoint {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.eps[id]
}

// Reattach replaces id's endpoint with a fresh one — the restart path for
// in-process experiments: a node that was stopped (its endpoint closed)
// comes back with an empty mailbox, like a rebooted process re-binding its
// socket. The old endpoint stays closed; messages still in flight toward it
// are delivered to the new mailbox (the link resolves the target at
// delivery time), which models packets arriving just after the reboot.
func (n *ChanNetwork) Reattach(id flcrypto.NodeID) Endpoint {
	n.mu.Lock()
	defer n.mu.Unlock()
	ep := &chanEndpoint{
		net:   n,
		id:    id,
		mbox:  newMailbox(),
		links: make([]linkQueue, n.cfg.N),
	}
	n.eps[id] = ep
	return ep
}

// Crash makes id silent: nothing it sends is delivered anymore and nothing
// reaches it. This models the fail-stop crashes of §7.4.1.
func (n *ChanNetwork) Crash(id flcrypto.NodeID) {
	n.mu.Lock()
	n.crashed[id] = true
	n.mu.Unlock()
}

// Heal undoes Crash for id.
func (n *ChanNetwork) Heal(id flcrypto.NodeID) {
	n.mu.Lock()
	delete(n.crashed, id)
	n.mu.Unlock()
}

// SetLinkFilter installs a predicate that blocks (from→to) links when it
// returns true. Used to inject omission failures and partitions. Passing nil
// removes the filter.
func (n *ChanNetwork) SetLinkFilter(f func(from, to flcrypto.NodeID) bool) {
	n.mu.Lock()
	n.blockLink = f
	n.mu.Unlock()
}

// SetFaultInjector installs (or, with nil, removes) the per-message fault
// injector at runtime. The simulation layer swaps injectors between fault
// epochs.
func (n *ChanNetwork) SetFaultInjector(f FaultInjector) {
	n.mu.Lock()
	n.faults = f
	n.mu.Unlock()
}

func (n *ChanNetwork) faultFor(from, to flcrypto.NodeID, size int) Fault {
	n.mu.RLock()
	f := n.faults
	n.mu.RUnlock()
	if f == nil {
		return Fault{}
	}
	return f.FaultFor(from, to, size)
}

// FaultDrops reports how many messages the fault injector has discarded.
func (n *ChanNetwork) FaultDrops() uint64 { return n.faultDrops.Load() }

// FaultDups reports how many duplicate deliveries the injector has minted.
func (n *ChanNetwork) FaultDups() uint64 { return n.faultDups.Load() }

func (n *ChanNetwork) linkBlocked(from, to flcrypto.NodeID) bool {
	n.mu.RLock()
	defer n.mu.RUnlock()
	if n.crashed[from] || n.crashed[to] {
		return true
	}
	return n.blockLink != nil && n.blockLink(from, to)
}

// BytesSent reports the cumulative payload bytes node id has sent (excluding
// self-delivery), for bandwidth accounting in experiments. The counter
// resets when the node is Reattached.
func (n *ChanNetwork) BytesSent(id flcrypto.NodeID) uint64 {
	return atomic.LoadUint64(&n.endpoint(id).bytesSent)
}

// MessagesSent reports the cumulative message count node id has sent
// (excluding self-delivery). The counter resets when the node is Reattached.
func (n *ChanNetwork) MessagesSent(id flcrypto.NodeID) uint64 {
	return atomic.LoadUint64(&n.endpoint(id).msgsSent)
}

// Close shuts down every endpoint.
func (n *ChanNetwork) Close() {
	n.mu.RLock()
	eps := append([]*chanEndpoint(nil), n.eps...)
	n.mu.RUnlock()
	for _, ep := range eps {
		ep.Close()
	}
}

type chanEndpoint struct {
	net  *ChanNetwork
	id   flcrypto.NodeID
	mbox *mailbox

	closed atomic.Bool

	// egress is the time the node's NIC becomes free, for bandwidth
	// modeling; links[j] holds the FIFO queue of id→j messages awaiting
	// their delivery timers.
	mu     sync.Mutex
	egress time.Time
	links  []linkQueue

	bytesSent uint64
	msgsSent  uint64
}

// linkQueue keeps one ordered pair's in-flight messages. Delivery timers
// each release the queue *head*, not "their" message, so FIFO order holds
// even when the runtime fires timer callbacks out of deadline order.
type linkQueue struct {
	mu    sync.Mutex
	queue []Message
	last  time.Time // monotone delivery horizon for the link

	// deliver serializes whole deliveries on the link — pop, fault re-check,
	// trace, and mailbox put — so two releasers that pop in order cannot put
	// out of order. Taken before mu, never while holding it; senders only
	// ever wait on mu.
	deliver sync.Mutex
}

func (e *chanEndpoint) ID() flcrypto.NodeID { return e.id }
func (e *chanEndpoint) N() int              { return e.net.cfg.N }

func (e *chanEndpoint) Recv() <-chan Message { return e.mbox.out }

func (e *chanEndpoint) Close() error {
	if e.closed.Swap(true) {
		return ErrClosed
	}
	e.mbox.close()
	return nil
}

func (e *chanEndpoint) Send(to flcrypto.NodeID, payload []byte) error {
	if e.closed.Load() {
		return ErrClosed
	}
	if int(to) < 0 || int(to) >= e.net.cfg.N {
		return fmt.Errorf("transport: send to unknown node %d", to)
	}
	if to == e.id {
		// Loopback: immediate, no NIC cost.
		if tr := e.net.cfg.Trace; tr != nil {
			tr(TraceEvent{At: e.net.clock.Now(), From: e.id, To: e.id, Payload: payload})
		}
		e.mbox.put(Message{From: e.id, Payload: payload})
		return nil
	}
	if e.net.linkBlocked(e.id, to) {
		// Blocked links silently drop: from the protocol's point of view
		// this is indistinguishable from an arbitrarily slow link, which
		// is exactly the asynchronous-period behavior being modeled.
		return nil
	}
	fault := e.net.faultFor(e.id, to, len(payload))
	if fault.Drop {
		e.net.faultDrops.Add(1)
		return nil
	}
	atomic.AddUint64(&e.bytesSent, uint64(len(payload)))
	atomic.AddUint64(&e.msgsSent, 1)

	now := e.net.clock.Now()
	e.mu.Lock()
	sendDone := now
	if rate := e.net.cfg.EgressBytesPerSec; rate > 0 {
		if e.egress.Before(now) {
			e.egress = now
		}
		e.egress = e.egress.Add(time.Duration(float64(len(payload)) / rate * float64(time.Second)))
		sendDone = e.egress
	}
	e.mu.Unlock()
	e.enqueue(to, payload, sendDone, fault.ExtraDelay)
	if fault.Duplicate {
		// The copy draws its own latency, so it trails (or lands with) the
		// original under the link's FIFO horizon.
		e.net.faultDups.Add(1)
		e.enqueue(to, payload, sendDone, fault.ExtraDelay)
	}
	return nil
}

// enqueue schedules one delivery of payload on the id→to link at
// sendDone + latency draw + extraDelay, clamped to the link's FIFO horizon.
func (e *chanEndpoint) enqueue(to flcrypto.NodeID, payload []byte, sendDone time.Time, extraDelay time.Duration) {
	deliverAt := sendDone.Add(e.net.cfg.Latency.Delay(e.id, to) + extraDelay)

	lq := &e.links[to]
	lq.mu.Lock()
	if deliverAt.Before(lq.last) {
		deliverAt = lq.last // a message never overtakes its predecessor's horizon
	}
	lq.last = deliverAt
	lq.queue = append(lq.queue, Message{From: e.id, Payload: payload})
	lq.mu.Unlock()

	delay := deliverAt.Sub(e.net.clock.Now())
	if _, virtual := e.net.clock.(*VirtualClock); delay <= 50*time.Microsecond && !virtual {
		// Wall-clock fast path: a due message skips the timer. Virtual
		// clocks always go through AfterFunc so delivery order is a pure
		// function of (deadline, registration) even for zero-latency links.
		e.deliverHead(to, lq)
		return
	}
	e.net.clock.AfterFunc(delay, func() { e.deliverHead(to, lq) })
}

// deliverHead releases the oldest queued message on the link. Every send
// schedules exactly one deliverHead, so counts match; taking the head keeps
// the link FIFO regardless of timer callback scheduling order.
func (e *chanEndpoint) deliverHead(to flcrypto.NodeID, lq *linkQueue) {
	lq.deliver.Lock()
	defer lq.deliver.Unlock()
	lq.mu.Lock()
	if len(lq.queue) == 0 {
		lq.mu.Unlock()
		return
	}
	msg := lq.queue[0]
	lq.queue = lq.queue[1:]
	lq.mu.Unlock()
	// Re-check fault state at delivery time: messages in flight when a
	// crash or partition is injected are dropped, like packets on a cut
	// cable.
	if e.net.linkBlocked(msg.From, to) {
		return
	}
	if tr := e.net.cfg.Trace; tr != nil {
		tr(TraceEvent{At: e.net.clock.Now(), From: msg.From, To: to, Payload: msg.Payload})
	}
	// Resolve the target at delivery time: a Reattach between send and
	// delivery routes the message to the restarted node's fresh mailbox.
	e.net.endpoint(to).mbox.put(msg)
}

// Broadcast shares one payload slice across all n deliveries — no per-peer
// copy. Senders hand ownership of the slice to the transport and must not
// mutate it afterwards; receivers treat inbound payloads as read-only.
func (e *chanEndpoint) Broadcast(payload []byte) error {
	if e.closed.Load() {
		return ErrClosed
	}
	for i := 0; i < e.net.cfg.N; i++ {
		if err := e.Send(flcrypto.NodeID(i), payload); err != nil {
			return err
		}
	}
	return nil
}
