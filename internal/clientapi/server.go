package clientapi

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/flcrypto"
	"repro/internal/statemachine"
	"repro/internal/types"
)

// ServerOptions tune a Server.
type ServerOptions struct {
	// SendQueueCap bounds each connection's outbound queue in frames
	// (default 4096). A BLOCK frame arriving at a full queue parks the
	// subscriber at the fan-out hub (it is retried from the shared ring, or
	// demoted to a replay cohort, once the connection drains) — backpressure
	// that paces the stream to the client without a blocked goroutine.
	// Control frames (ACK, COMMIT, replies) originate on goroutines that
	// must never block — the node's delivery path among them — so a queue
	// still full when one arrives declares the client dead and closes the
	// connection; the client redials and resumes from its cursor.
	SendQueueCap int
	// Logf, when set, receives server diagnostics (accept/handshake/conn
	// errors). Nil discards them.
	Logf func(format string, args ...any)
}

// Node is the node-side surface the client API drives. *flo.Node implements
// it; tests may substitute a fake.
type Node interface {
	ID() flcrypto.NodeID
	N() int
	Workers() int
	Submit(tx types.Transaction) error
	SubscribeDeliver(fn func(worker uint32, blk types.Block)) (cancel func())
	ReadDefinite(worker uint32, from uint64, max int) ([]types.Block, error)
	RegisterClient(id uint64) error
	UnregisterClient(id uint64)
	DeliveredBlocks() uint64
	DeliveredTxs() uint64
	PoolPending() int
	// State reads (wire protocol 1.2), served from the node's ledger
	// replica once its applied frontier covers the (worker, round) token;
	// statemachine.ErrNoState when the node has no backend configured.
	StateGet(ctx context.Context, key string, worker uint32, round uint64) ([]byte, bool, error)
	StateScan(ctx context.Context, begin, end string, max int, worker uint32, round uint64) ([]statemachine.Entry, error)
	StateWatch(ctx context.Context, key string, worker uint32, round uint64) (<-chan statemachine.KeyUpdate, func(), error)
}

// Server serves the client wire protocol on behalf of one node. It owns a
// listener, one goroutine pair per connection (reader + writer), a
// SubscribeDeliver tap that routes commit receipts to the sessions whose
// transactions appear in delivered blocks, and one fan-out Hub through which
// every SUBSCRIBE stream is served (one encoding per block shared across all
// subscribers; see fanout.go).
type Server struct {
	node Node
	opts ServerOptions
	hub  *Hub

	ln            net.Listener
	cancelDeliver func()

	mu       sync.Mutex
	conns    map[*serverConn]bool
	sessions map[uint64]*serverConn // client id → its connection
	closed   bool
	wg       sync.WaitGroup
}

// NewServer creates a server for node. Call Listen to start serving
// (ServeConn serves pre-established connections without a listener).
func NewServer(node Node, opts ServerOptions) *Server {
	if opts.SendQueueCap <= 0 {
		opts.SendQueueCap = 4096
	}
	s := &Server{
		node:     node,
		opts:     opts,
		conns:    make(map[*serverConn]bool),
		sessions: make(map[uint64]*serverConn),
	}
	s.hub = NewHub(node, opts.Logf)
	s.cancelDeliver = node.SubscribeDeliver(s.onDeliver)
	return s
}

// Fanout snapshots the server's fan-out hub counters (frames shared vs
// encoded, cohort replays, demotions, overflow disconnects, tier sizes).
func (s *Server) Fanout() FanoutStats { return s.hub.Stats() }

// Listen binds addr and starts accepting client sessions. The bound address
// (useful with ":0") is available via Addr.
func (s *Server) Listen(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("clientapi: listen %s: %w", addr, err)
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return errors.New("clientapi: server is closed")
	}
	s.ln = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop()
	return nil
}

// ServeConn serves one client session over a pre-established connection —
// any net.Conn, typically one end of a net.Pipe. Scale tests and benches use
// it to attach tens of thousands of subscribers without consuming file
// descriptors. It returns once the session's goroutines are started; the
// connection is closed when the session ends or the server closes.
func (s *Server) ServeConn(conn net.Conn) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		conn.Close()
		return errors.New("clientapi: server is closed")
	}
	c := s.newConnLocked(conn)
	s.mu.Unlock()
	s.wg.Add(2)
	go c.readLoop()
	go c.writeLoop()
	return nil
}

// newConnLocked registers a serverConn for conn; s.mu held, s not closed.
func (s *Server) newConnLocked(conn net.Conn) *serverConn {
	c := &serverConn{srv: s, conn: conn, br: bufio.NewReader(conn)}
	c.sendCond = sync.NewCond(&c.sendMu)
	c.connCtx, c.connCancel = context.WithCancel(context.Background())
	s.conns[c] = true
	return c
}

// Addr returns the bound listen address ("" before Listen).
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close stops the listener and tears down every session.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	conns := make([]*serverConn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	ln := s.ln
	s.mu.Unlock()
	if s.cancelDeliver != nil {
		s.cancelDeliver()
	}
	if ln != nil {
		ln.Close()
	}
	s.hub.Close()
	for _, c := range conns {
		c.close(errors.New("server shutting down"))
	}
	s.wg.Wait()
	return nil
}

func (s *Server) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return
			}
			s.logf("clientapi: accept: %v", err)
			continue
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		c := s.newConnLocked(conn)
		s.mu.Unlock()
		s.wg.Add(2)
		go c.readLoop()
		go c.writeLoop()
	}
}

// onDeliver is the server's single tap on the merged definite stream: it
// turns every delivered transaction of a connected client into a COMMIT
// receipt on that client's session. It runs on the node's delivery
// goroutine and must not block — receipts go through the non-blocking
// control enqueue, which sacrifices the connection rather than the node.
func (s *Server) onDeliver(w uint32, blk types.Block) {
	if len(blk.Body.Txs) == 0 {
		return
	}
	// One lock acquisition per block, not per transaction — this runs on
	// the consensus delivery path, and saturated blocks carry hundreds of
	// transactions.
	type route struct {
		c   *serverConn
		seq uint64
	}
	var routes []route
	s.mu.Lock()
	if len(s.sessions) > 0 {
		for i := range blk.Body.Txs {
			tx := &blk.Body.Txs[i]
			if c := s.sessions[tx.Client]; c != nil {
				routes = append(routes, route{c: c, seq: tx.Seq})
			}
		}
	}
	s.mu.Unlock()
	if len(routes) == 0 {
		return
	}
	receipt := Receipt{Worker: w, Round: blk.Signed.Header.Round, BlockHash: blk.Hash()}
	for _, r := range routes {
		r.c.enqueueControl(marshalCommit(commitMsg{Seq: r.seq, Receipt: receipt}))
	}
}

// serverConn is one client session.
type serverConn struct {
	srv  *Server
	conn net.Conn
	// br is the only reader of conn, from the handshake frame on, so that a
	// frame costs a share of a read syscall, not two. It is the default 4 KiB:
	// a node may hold tens of thousands of mostly silent subscribers.
	br *bufio.Reader

	clientID   uint64
	registered bool

	sendMu   sync.Mutex
	sendCond *sync.Cond
	queue    [][]byte
	closed   bool

	// The active SUBSCRIBE stream, served by the server's fan-out hub (at
	// most one per session). fanSink is the hub-facing delivery surface; it
	// doubles as the stream's identity so the hub-initiated end and the
	// client-initiated unsubscribe race to send exactly one STREAM_END.
	subMu   sync.Mutex
	fanSink *connSink
	fanSub  *hubSub

	// connCtx spans the connection's lifetime; close cancels it, unblocking
	// state reads parked on a consistency token and tearing down watches.
	connCtx    context.Context
	connCancel context.CancelFunc

	watchMu sync.Mutex
	watches map[uint64]func() // request id → watch cancel
}

// close tears the connection down once: marks the send queue closed (waking
// writer and blocked enqueuers), closes the socket, detaches the stream from
// the fan-out hub (Unsubscribe never blocks on the subscriber — close may
// run on the node's delivery path via enqueueControl overflow), and releases
// the client id. registered/clientID are guarded by srv.mu: either the
// handshake registers first (and close here releases the id) or a closing
// server wins (and handshake sees srv.closed and releases it itself).
func (c *serverConn) close(reason error) {
	c.sendMu.Lock()
	if c.closed {
		c.sendMu.Unlock()
		return
	}
	c.closed = true
	c.sendCond.Broadcast()
	c.sendMu.Unlock()
	c.conn.Close()
	c.connCancel() // unblocks token waits; watches reap themselves
	c.cancelStream(false)
	s := c.srv
	s.mu.Lock()
	delete(s.conns, c)
	registered, clientID := c.registered, c.clientID
	if registered && s.sessions[clientID] == c {
		delete(s.sessions, clientID)
	}
	s.mu.Unlock()
	if registered {
		s.node.UnregisterClient(clientID)
	}
	if reason != nil {
		s.logf("clientapi: session %d closed: %v", clientID, reason)
	}
}

// enqueueControl appends a control frame (ACK, COMMIT, replies) without
// blocking. Stream frames stop at SendQueueCap, so the [cap, 2·cap) band is
// headroom reserved for control frames — replay backpressure holding the
// queue at cap must not read as a dead client. A queue past 2·cap means the
// client has truly stopped draining; the connection is closed rather than
// letting receipts pile up unboundedly or stalling the caller (which may be
// the node's delivery goroutine).
func (c *serverConn) enqueueControl(frame []byte) {
	c.sendMu.Lock()
	if c.closed {
		c.sendMu.Unlock()
		return
	}
	if len(c.queue) >= 2*c.srv.opts.SendQueueCap {
		c.sendMu.Unlock()
		c.srv.hub.NoteOverflowDisconnect()
		c.close(errors.New("send queue overflow (slow client)"))
		return
	}
	c.queue = append(c.queue, frame)
	c.sendCond.Broadcast()
	c.sendMu.Unlock()
}

// tryEnqueueStream appends a BLOCK frame without blocking: false when the
// queue is at SendQueueCap (or the connection is closed), which tells the
// fan-out hub to park the subscriber until the write loop drains. This is
// the non-blocking half of stream backpressure — BLOCK frames never occupy
// the control headroom above SendQueueCap.
func (c *serverConn) tryEnqueueStream(frame []byte) bool {
	c.sendMu.Lock()
	defer c.sendMu.Unlock()
	if c.closed || len(c.queue) >= c.srv.opts.SendQueueCap {
		return false
	}
	c.queue = append(c.queue, frame)
	c.sendCond.Broadcast()
	return true
}

// enqueueStream appends a WATCH_EVENT frame, blocking while the queue is
// full — backpressure that paces a watch to the client's drain rate
// (coalescing happens upstream in the replica). It returns an error once the
// connection is closed or ctx is canceled.
func (c *serverConn) enqueueStream(ctx context.Context, frame []byte) error {
	c.sendMu.Lock()
	defer c.sendMu.Unlock()
	for !c.closed && ctx.Err() == nil && len(c.queue) >= c.srv.opts.SendQueueCap {
		c.sendCond.Wait()
	}
	if c.closed {
		return errors.New("clientapi: connection closed")
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	c.queue = append(c.queue, frame)
	c.sendCond.Broadcast()
	return nil
}

func (c *serverConn) writeLoop() {
	defer c.srv.wg.Done()
	for {
		c.sendMu.Lock()
		for len(c.queue) == 0 && !c.closed {
			c.sendCond.Wait()
		}
		if len(c.queue) == 0 && c.closed {
			c.sendMu.Unlock()
			return
		}
		batch := c.queue
		c.queue = nil
		c.sendCond.Broadcast() // wake stream enqueuers blocked on the bound
		c.sendMu.Unlock()
		bufs := make(net.Buffers, len(batch))
		copy(bufs, batch)
		if _, err := bufs.WriteTo(c.conn); err != nil {
			c.close(fmt.Errorf("write: %w", err))
			return
		}
		// The queue just drained by a batch: if the hub parked this
		// connection's subscriber against a full queue, tell it to retry
		// (no-op unless parked — one atomic load).
		c.subMu.Lock()
		sub := c.fanSub
		c.subMu.Unlock()
		if sub != nil {
			c.srv.hub.Unpark(sub)
		}
	}
}

func (c *serverConn) readLoop() {
	defer c.srv.wg.Done()
	defer c.close(nil)
	if err := c.handshake(); err != nil {
		return
	}
	for {
		kind, payload, err := readFrame(c.br)
		if err != nil {
			return
		}
		switch kind {
		case kindSubmit:
			m, err := decodeSubmit(payload)
			if err != nil {
				return
			}
			tx := types.Transaction{Client: c.clientID, Seq: m.Seq, Payload: m.Payload}
			c.enqueueControl(marshalAck(ackMsg{Seq: m.Seq, Err: errString(c.srv.node.Submit(tx))}))
		case kindSubscribe:
			cur, flt, err := decodeSubscribe(payload)
			if err != nil {
				return
			}
			c.startStream(cur, flt)
		case kindUnsubscribe:
			c.cancelStream(true)
		case kindGet:
			m, err := decodeGet(payload)
			if err != nil {
				return
			}
			c.spawn(func() { c.serveGet(m) })
		case kindScan:
			m, err := decodeScan(payload)
			if err != nil {
				return
			}
			c.spawn(func() { c.serveScan(m) })
		case kindWatch:
			m, err := decodeWatch(payload)
			if err != nil {
				return
			}
			c.spawn(func() { c.serveWatch(m) })
		case kindUnwatch:
			id, err := decodeUnwatch(payload)
			if err != nil {
				return
			}
			c.watchMu.Lock()
			cancel := c.watches[id]
			delete(c.watches, id)
			c.watchMu.Unlock()
			if cancel != nil {
				cancel()
			}
		case kindInfo:
			node := c.srv.node
			c.enqueueControl(marshalInfoReply(Info{
				Node:            int64(node.ID()),
				N:               node.N(),
				Workers:         node.Workers(),
				DeliveredBlocks: node.DeliveredBlocks(),
				DeliveredTxs:    node.DeliveredTxs(),
				PoolPending:     node.PoolPending(),
			}))
		default:
			return // unknown kind: protocol violation, drop the session
		}
	}
}

// handshake performs HELLO/WELCOME: version exact-match, then an exclusive
// claim on the client identity (duplicate and reserved ids are refused).
func (c *serverConn) handshake() error {
	kind, payload, err := readFrame(c.br)
	if err != nil {
		return err
	}
	if kind != kindHello {
		return errors.New("clientapi: expected HELLO")
	}
	hello, err := decodeHello(payload)
	if err != nil {
		return err
	}
	refuse := func(msg string) error {
		// Written synchronously: the read loop closes the connection as soon
		// as handshake returns, which must not race the refusal onto the
		// floor. Nothing else writes this early (the session is not yet
		// registered, so no receipts or streams target it).
		c.conn.SetWriteDeadline(time.Now().Add(5 * time.Second))
		c.conn.Write(marshalWelcome(welcomeMsg{Version: Version, Err: msg}))
		return errors.New("clientapi: " + msg)
	}
	if hello.Magic != Magic {
		return refuse("bad magic: not a FireLedger client")
	}
	if hello.Version != Version {
		return refuse(fmt.Sprintf("unsupported protocol version %d (server speaks %d)", hello.Version, Version))
	}
	if err := c.srv.node.RegisterClient(hello.ClientID); err != nil {
		return refuse(err.Error())
	}
	node := c.srv.node
	// WELCOME is enqueued before the session becomes routable: a
	// reconnecting client may have writes from its previous connection
	// still committing, and a COMMIT enqueued ahead of the WELCOME would
	// break the handshake's frame order.
	c.enqueueControl(marshalWelcome(welcomeMsg{
		Version: Version,
		Node:    int64(node.ID()),
		N:       uint32(node.N()),
		Workers: uint32(node.Workers()),
	}))
	c.srv.mu.Lock()
	if c.srv.closed {
		// Server.Close already swept the session maps; releasing here keeps
		// the id from leaking on the node.
		c.srv.mu.Unlock()
		node.UnregisterClient(hello.ClientID)
		return errors.New("clientapi: server is closed")
	}
	c.clientID = hello.ClientID
	c.registered = true
	c.srv.sessions[hello.ClientID] = c
	c.srv.mu.Unlock()
	return nil
}

// spawn runs fn on a server-tracked goroutine (Close waits for it), unless
// the server is already closing. State reads run off the read loop because
// a consistency token may block on the applied frontier — replies therefore
// return in completion order, correlated by request id.
func (c *serverConn) spawn(fn func()) {
	s := c.srv
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.wg.Add(1) // under s.mu: Close sets closed before it waits
	s.mu.Unlock()
	go func() {
		defer s.wg.Done()
		fn()
	}()
}

// serveGet answers one GET: wait out the token, read, reply as a control
// frame (replies never block; a client that stopped draining is closed by
// the overflow guard).
func (c *serverConn) serveGet(m getMsg) {
	v, found, err := c.srv.node.StateGet(c.connCtx, m.Key, m.At.Worker, m.At.Round)
	if c.connCtx.Err() != nil {
		return // connection gone; no one to answer
	}
	c.enqueueControl(marshalGetReply(getReplyMsg{
		ID: m.ID, Found: found, Value: v, Code: readCode(err), Err: errString(err),
	}))
}

// serveScan answers one SCAN, capping the reply at MaxScanEntries and at a
// frame-size budget (huge values): a truncated reply simply carries fewer
// entries, and the client pages with begin = lastKey+"\x00".
func (c *serverConn) serveScan(m scanMsg) {
	max := int(m.Max)
	if max <= 0 || max > MaxScanEntries {
		max = MaxScanEntries
	}
	entries, err := c.srv.node.StateScan(c.connCtx, m.Begin, m.End, max, m.At.Worker, m.At.Round)
	if c.connCtx.Err() != nil {
		return
	}
	budget := MaxFrame / 2
	for i := range entries {
		budget -= 8 + len(entries[i].Key) + len(entries[i].Value)
		if budget < 0 {
			entries = entries[:i]
			break
		}
	}
	c.enqueueControl(marshalScanReply(scanReplyMsg{
		ID: m.ID, Entries: entries, Code: readCode(err), Err: errString(err),
	}))
}

// serveWatch runs one WATCH subscription: wait out the token, register the
// replica watch, then pump updates until UNWATCH, connection close, or a
// send failure. Updates use the blocking stream enqueue — backpressure is
// safe because the replica coalesces to the latest value upstream — and the
// watch always terminates with a WATCH_END.
func (c *serverConn) serveWatch(m watchMsg) {
	ch, cancel, err := c.srv.node.StateWatch(c.connCtx, m.Key, m.At.Worker, m.At.Round)
	if err != nil {
		if c.connCtx.Err() == nil {
			c.enqueueControl(marshalWatchEnd(watchEndMsg{ID: m.ID, Code: readCode(err), Err: errString(err)}))
		}
		return
	}
	c.watchMu.Lock()
	if c.watches == nil {
		c.watches = make(map[uint64]func())
	}
	if _, dup := c.watches[m.ID]; dup {
		c.watchMu.Unlock()
		cancel()
		c.enqueueControl(marshalWatchEnd(watchEndMsg{ID: m.ID, Code: readError, Err: "duplicate watch id"}))
		return
	}
	c.watches[m.ID] = cancel
	c.watchMu.Unlock()
	for upd := range ch {
		if c.enqueueStream(c.connCtx, marshalWatchEvent(watchEventMsg{ID: m.ID, Upd: upd})) != nil {
			cancel()
			// Keep draining: cancel closes ch, ending the loop.
		}
	}
	c.watchMu.Lock()
	delete(c.watches, m.ID)
	c.watchMu.Unlock()
	c.enqueueControl(marshalWatchEnd(watchEndMsg{ID: m.ID, Code: readOK}))
}

// connSink adapts a serverConn to the fan-out hub's delivery surface. The
// sink pointer identifies one subscription for the lifetime of the stream:
// STREAM_END is sent by whichever of the hub (terminal error) or the
// connection (unsubscribe / replacement) detaches it first.
type connSink struct{ c *serverConn }

// TrySend queues the block's shared BLOCK frame, encoding it at the hub on
// first use. Hub.mu is held.
func (s *connSink) TrySend(f *hubFrame) bool {
	hub := s.c.srv.hub
	frame := hub.frameBytesLocked(f)
	if !s.c.tryEnqueueStream(frame) {
		return false
	}
	hub.framesShared.Add(1)
	hub.bytesSent.Add(uint64(len(frame)))
	return true
}

func (s *connSink) End(err error) { s.c.streamEnded(s, err) }

// streamEnded handles a hub-initiated stream end (compacted cursor, read
// failure): if sink is still this connection's active stream, detach it and
// report the error to the client. The hub has already forgotten the
// subscription when this runs.
func (c *serverConn) streamEnded(sink *connSink, err error) {
	c.subMu.Lock()
	if c.fanSink != sink {
		c.subMu.Unlock()
		return // already replaced or unsubscribed; its STREAM_END went out
	}
	c.fanSink, c.fanSub = nil, nil
	c.subMu.Unlock()
	c.enqueueControl(marshalStreamEnd(err))
}

// startStream subscribes this connection at the server's fan-out hub,
// replacing any previous subscription (one active stream per session). The
// hub serves the replay — shared with every cohort member in the same
// segment — and the live tail from the shared frame ring; this connection
// contributes only its send queue.
func (c *serverConn) startStream(cur Cursor, flt Filter) {
	c.cancelStream(true)
	sink := &connSink{c: c}
	c.subMu.Lock()
	c.fanSink = sink
	c.subMu.Unlock()
	sub, err := c.srv.hub.Subscribe(cur, flt, sink)
	if err != nil {
		c.streamEnded(sink, err)
		return
	}
	c.subMu.Lock()
	if c.fanSink == sink {
		c.fanSub = sub
		c.subMu.Unlock()
		// If close tore the connection down while we were registering, its
		// cancelStream may have run before the handle existed: detach now
		// rather than leak the subscription at the hub.
		c.sendMu.Lock()
		closed := c.closed
		c.sendMu.Unlock()
		if closed {
			c.cancelStream(false)
		}
		return
	}
	// The hub ended the stream while we were registering the handle (e.g.
	// an immediately-compacted cursor): nothing to track.
	c.subMu.Unlock()
	c.srv.hub.Unsubscribe(sub)
}

// cancelStream detaches the active subscription from the hub, if any. With
// notify, the client is told the stream ended cleanly (unsubscribe or
// replacement by a new SUBSCRIBE); close passes false — the dying
// connection has no one to notify. Never blocks on the hub beyond its
// mutex, so it is safe on the node's delivery path (enqueueControl
// overflow → close).
func (c *serverConn) cancelStream(notify bool) {
	c.subMu.Lock()
	sink, sub := c.fanSink, c.fanSub
	c.fanSink, c.fanSub = nil, nil
	c.subMu.Unlock()
	if sink == nil {
		return
	}
	if sub != nil {
		c.srv.hub.Unsubscribe(sub)
	}
	if notify {
		c.enqueueControl(marshalStreamEnd(nil))
	}
}
