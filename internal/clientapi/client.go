package clientapi

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/types"
)

// DialOptions tune Dial.
type DialOptions struct {
	// Timeout bounds the TCP dial and the handshake round trip (default 5s).
	Timeout time.Duration
	// SubscribeBuffer is the capacity of the Subscribe event channel
	// (default 256). A consumer that stops draining it stalls the session's
	// read loop — by design, the backpressure travels over TCP to the
	// server, which pauses the stream at its replay source.
	SubscribeBuffer int
}

// Client is a remote FireLedger session: one TCP connection speaking the
// clientapi wire protocol to a node's client port. It assigns client-local
// sequence numbers, pipelines submissions (Submit returns before the ACK;
// the Pending resolves on the asynchronous COMMIT receipt), and carries at
// most one block subscription. Methods are safe for concurrent use.
type Client struct {
	conn     net.Conn
	br       *bufio.Reader // the read loop's view of conn
	clientID uint64
	welcome  welcomeMsg
	opts     DialOptions

	writeMu sync.Mutex // serializes whole-frame writes

	mu       sync.Mutex
	seq      uint64
	pending  map[uint64]*pendingEntry
	sub      *subscription
	infoC    []chan Info
	closed   bool
	readErr  error
	readDone chan struct{}

	// State reads (1.2): request-id-correlated waiters — the server answers
	// reads in completion order, so each in-flight request parks its own
	// reply channel here.
	nextReq  uint64
	getW     map[uint64]chan getReplyMsg
	scanW    map[uint64]chan scanReplyMsg
	watchers map[uint64]*clientWatch
}

type pendingEntry struct {
	p       *Pending
	resolve func(Receipt, error)
}

type subscription struct {
	ctx   context.Context
	ch    chan BlockEvent
	ended chan struct{} // closed when the subscription detaches
}

// Dial connects to a node's client port and performs the HELLO/WELCOME
// handshake, claiming clientID for this session. The id must be unique
// among the node's live sessions (in-process clients included); the server
// refuses duplicates and the reserved conviction identity.
func Dial(addr string, clientID uint64, opts DialOptions) (*Client, error) {
	if opts.Timeout <= 0 {
		opts.Timeout = 5 * time.Second
	}
	conn, err := net.DialTimeout("tcp", addr, opts.Timeout)
	if err != nil {
		return nil, fmt.Errorf("clientapi: dial %s: %w", addr, err)
	}
	return Attach(conn, clientID, opts)
}

// Attach runs the HELLO/WELCOME handshake over an already-established
// connection and returns the session. Any net.Conn works: scale tests and
// benches attach over net.Pipe ends served by Server.ServeConn, taking the
// file-descriptor limit out of subscriber-count experiments. Attach owns
// conn; it is closed on handshake failure and by Client.Close.
func Attach(conn net.Conn, clientID uint64, opts DialOptions) (*Client, error) {
	if opts.Timeout <= 0 {
		opts.Timeout = 5 * time.Second
	}
	if opts.SubscribeBuffer <= 0 {
		opts.SubscribeBuffer = 256
	}
	conn.SetDeadline(time.Now().Add(opts.Timeout))
	if _, err := conn.Write(marshalHello(helloMsg{Magic: Magic, Version: Version, ClientID: clientID})); err != nil {
		conn.Close()
		return nil, fmt.Errorf("clientapi: handshake write: %w", err)
	}
	br := bufio.NewReader(conn) // the only reader of conn from here on (see serverConn.br)
	kind, payload, err := readFrame(br)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("clientapi: handshake read: %w", err)
	}
	if kind != kindWelcome {
		conn.Close()
		return nil, fmt.Errorf("clientapi: handshake: unexpected frame kind %d", kind)
	}
	welcome, err := decodeWelcome(payload)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("clientapi: handshake decode: %w", err)
	}
	if welcome.Err != "" {
		conn.Close()
		return nil, fmt.Errorf("clientapi: server refused session: %s", welcome.Err)
	}
	conn.SetDeadline(time.Time{})
	c := &Client{
		conn:     conn,
		br:       br,
		clientID: clientID,
		welcome:  welcome,
		opts:     opts,
		// The sequence base is clock-seeded so two sessions of the same
		// client identity can never mint the same (client, seq): a write
		// left in a worker pool by a dropped connection must not have its
		// eventual COMMIT routed onto an unrelated pending of the redialed
		// session, nor collide with its pool identity.
		seq:      uint64(time.Now().UnixNano()),
		pending:  make(map[uint64]*pendingEntry),
		readDone: make(chan struct{}),
		getW:     make(map[uint64]chan getReplyMsg),
		scanW:    make(map[uint64]chan scanReplyMsg),
		watchers: make(map[uint64]*clientWatch),
	}
	go c.readLoop()
	return c, nil
}

// ClientID returns the session's claimed client identity.
func (c *Client) ClientID() uint64 { return c.clientID }

// Workers returns the serving node's worker count ω (from the handshake),
// which Cursor.Next needs.
func (c *Client) Workers() int { return int(c.welcome.Workers) }

// write sends one complete frame.
func (c *Client) write(frame []byte) error {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	if _, err := c.conn.Write(frame); err != nil {
		return fmt.Errorf("clientapi: write: %w", err)
	}
	return nil
}

// Submit sends payload as this session's next transaction. It returns once
// the frame is on the wire — submissions pipeline; the returned Pending is
// acked when the node accepts the write and resolves with the commit
// receipt when it reaches a definite block.
func (c *Client) Submit(payload []byte) (*Pending, error) {
	c.mu.Lock()
	if c.closed {
		err := c.readErr
		c.mu.Unlock()
		if err == nil {
			err = errors.New("clientapi: session closed")
		}
		return nil, err
	}
	c.seq++
	seq := c.seq
	tx := types.Transaction{Client: c.clientID, Seq: seq, Payload: payload}
	p, _, resolve := NewPending(tx)
	c.pending[seq] = &pendingEntry{p: p, resolve: resolve}
	c.mu.Unlock()
	if err := c.write(marshalSubmit(submitMsg{Seq: seq, Payload: payload})); err != nil {
		c.mu.Lock()
		delete(c.pending, seq)
		c.mu.Unlock()
		return nil, err
	}
	return p, nil
}

// SubmitWait is Submit followed by Pending.Wait.
func (c *Client) SubmitWait(ctx context.Context, payload []byte) (Receipt, error) {
	p, err := c.Submit(payload)
	if err != nil {
		return Receipt{}, err
	}
	return p.Wait(ctx)
}

// InFlight reports how many of this session's writes are not yet resolved.
func (c *Client) InFlight() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pending)
}

// Subscribe opens the session's block stream at cursor cur: the merged
// definite stream, history replayed first, then the live tail, every block
// exactly once. One subscription is active per session; the stream ends
// (with a terminal Err event for abnormal ends) when ctx is canceled, the
// session closes, or the cursor predates the node's retained history.
func (c *Client) Subscribe(ctx context.Context, cur Cursor) (<-chan BlockEvent, error) {
	return c.SubscribeFiltered(ctx, cur, Filter{})
}

// SubscribeFiltered is Subscribe with a server-side filter (wire 1.3): only
// blocks carrying at least one transaction matching flt are sent over the
// wire; the cursor still advances over suppressed blocks, so resuming from
// the last received block's Cursor.Next is gap-free in the filtered view.
func (c *Client) SubscribeFiltered(ctx context.Context, cur Cursor, flt Filter) (<-chan BlockEvent, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, errors.New("clientapi: session closed")
	}
	if c.sub != nil {
		c.mu.Unlock()
		return nil, errors.New("clientapi: a subscription is already active on this session")
	}
	sub := &subscription{ctx: ctx, ch: make(chan BlockEvent, c.opts.SubscribeBuffer), ended: make(chan struct{})}
	c.sub = sub
	c.mu.Unlock()
	if err := c.write(marshalSubscribe(cur, flt)); err != nil {
		c.mu.Lock()
		c.sub = nil
		c.mu.Unlock()
		return nil, err
	}
	// Relay ctx cancellation to the server; the stream then ends cleanly
	// with a STREAM_END and the channel closes. The relay dies with its own
	// subscription (ended), and re-checks it is still the active one under
	// the lock before writing — a stale cancel firing after this stream
	// already ended must not kill a successor subscription on the session.
	go func() {
		select {
		case <-ctx.Done():
			c.mu.Lock()
			active := c.sub == sub
			if active {
				c.write(marshalEmpty(kindUnsubscribe))
			}
			c.mu.Unlock()
		case <-sub.ended:
		case <-c.readDone:
		}
	}()
	return sub.ch, nil
}

// Info queries the serving node's identity and delivery totals.
func (c *Client) Info(ctx context.Context) (Info, error) {
	ch := make(chan Info, 1)
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return Info{}, errors.New("clientapi: session closed")
	}
	c.infoC = append(c.infoC, ch)
	c.mu.Unlock()
	if err := c.write(marshalEmpty(kindInfo)); err != nil {
		return Info{}, err
	}
	select {
	case info := <-ch:
		return info, nil
	case <-c.readDone:
		return Info{}, errors.New("clientapi: session closed")
	case <-ctx.Done():
		return Info{}, ctx.Err()
	}
}

// sessionErrLocked returns the session's terminal error (c.mu held).
func (c *Client) sessionErrLocked() error {
	if c.readErr != nil {
		return c.readErr
	}
	return errors.New("clientapi: session closed")
}

// Get reads key's current value from the serving node's ledger replica. The
// token anchors the read: the server blocks until its applied frontier
// covers (token.Worker, token.Round), so Get with a commit Receipt's Token
// observes that write (read-your-writes). The zero token reads current
// state without waiting. ErrNoState when the node serves no state backend.
func (c *Client) Get(ctx context.Context, key string, at ReadToken) ([]byte, bool, error) {
	ch := make(chan getReplyMsg, 1)
	c.mu.Lock()
	if c.closed {
		err := c.sessionErrLocked()
		c.mu.Unlock()
		return nil, false, err
	}
	c.nextReq++
	id := c.nextReq
	c.getW[id] = ch
	c.mu.Unlock()
	drop := func() {
		c.mu.Lock()
		delete(c.getW, id)
		c.mu.Unlock()
	}
	if err := c.write(marshalGet(getMsg{ID: id, Key: key, At: at})); err != nil {
		drop()
		return nil, false, err
	}
	select {
	case m := <-ch:
		if err := readErr(m.Code, m.Err); err != nil {
			return nil, false, err
		}
		return m.Value, m.Found, nil
	case <-ctx.Done():
		drop()
		return nil, false, ctx.Err()
	case <-c.readDone:
		c.mu.Lock()
		err := c.sessionErrLocked()
		c.mu.Unlock()
		return nil, false, err
	}
}

// Scan reads up to max entries with begin <= key < end (ascending key
// order) under the same consistency-token semantics as Get. Replies are
// capped at MaxScanEntries (and a frame-size budget for huge values); page
// a larger range by reissuing with begin just past the last returned key.
// max <= 0 requests the cap.
func (c *Client) Scan(ctx context.Context, begin, end string, max int, at ReadToken) ([]Entry, error) {
	ch := make(chan scanReplyMsg, 1)
	c.mu.Lock()
	if c.closed {
		err := c.sessionErrLocked()
		c.mu.Unlock()
		return nil, err
	}
	c.nextReq++
	id := c.nextReq
	c.scanW[id] = ch
	c.mu.Unlock()
	drop := func() {
		c.mu.Lock()
		delete(c.scanW, id)
		c.mu.Unlock()
	}
	if max < 0 {
		max = 0
	}
	if err := c.write(marshalScan(scanMsg{ID: id, Begin: begin, End: end, Max: uint32(max), At: at})); err != nil {
		drop()
		return nil, err
	}
	select {
	case m := <-ch:
		if err := readErr(m.Code, m.Err); err != nil {
			return nil, err
		}
		return m.Entries, nil
	case <-ctx.Done():
		drop()
		return nil, ctx.Err()
	case <-c.readDone:
		c.mu.Lock()
		err := c.sessionErrLocked()
		c.mu.Unlock()
		return nil, err
	}
}

// clientWatch mirrors the replica-side watcher on the client: the read loop
// offers each WATCH_EVENT into a latest-wins slot (never blocking the
// session's frame dispatch), and a pump goroutine drains the slot into the
// consumer channel.
type clientWatch struct {
	id    uint64
	ready chan error // first server response: nil (event arrived) or error

	mu     sync.Mutex
	latest KeyUpdate
	has    bool
	wake   chan struct{}
	done   chan struct{}
	out    chan KeyUpdate

	readyOnce sync.Once
	doneOnce  sync.Once
}

func (w *clientWatch) offer(upd KeyUpdate) {
	w.mu.Lock()
	w.latest, w.has = upd, true
	w.mu.Unlock()
	poke(w.wake)
	w.readyOnce.Do(func() { w.ready <- nil })
}

func (w *clientWatch) end(err error) {
	if err == nil {
		err = errors.New("clientapi: watch ended")
	}
	w.readyOnce.Do(func() { w.ready <- err })
	w.doneOnce.Do(func() { close(w.done) })
}

func (w *clientWatch) pump() {
	defer close(w.out)
	for {
		select {
		case <-w.done:
			return
		case <-w.wake:
		}
		w.mu.Lock()
		upd, has := w.latest, w.has
		w.has = false
		w.mu.Unlock()
		if !has {
			continue
		}
		select {
		case w.out <- upd:
		case <-w.done:
			return
		}
	}
}

// WatchKey watches key on the serving node's ledger replica: once the
// applied frontier covers the token, the returned channel yields the key's
// current state and then every subsequent change, coalesced to the latest
// value when the consumer lags. The watch ends — and the channel closes —
// when ctx is canceled or the session closes. WatchKey blocks until the
// first state arrives (or the server refuses, e.g. ErrNoState).
func (c *Client) WatchKey(ctx context.Context, key string, at ReadToken) (<-chan KeyUpdate, error) {
	w := &clientWatch{
		ready: make(chan error, 1),
		wake:  make(chan struct{}, 1),
		done:  make(chan struct{}),
		out:   make(chan KeyUpdate, 1),
	}
	c.mu.Lock()
	if c.closed {
		err := c.sessionErrLocked()
		c.mu.Unlock()
		return nil, err
	}
	c.nextReq++
	w.id = c.nextReq
	c.watchers[w.id] = w
	c.mu.Unlock()
	drop := func() {
		c.mu.Lock()
		delete(c.watchers, w.id)
		c.mu.Unlock()
	}
	if err := c.write(marshalWatch(watchMsg{ID: w.id, Key: key, At: at})); err != nil {
		drop()
		return nil, err
	}
	select {
	case err := <-w.ready:
		if err != nil {
			drop()
			return nil, err
		}
	case <-ctx.Done():
		drop()
		c.write(marshalUnwatch(w.id))
		return nil, ctx.Err()
	case <-c.readDone:
		c.mu.Lock()
		err := c.sessionErrLocked()
		c.mu.Unlock()
		return nil, err
	}
	go w.pump()
	// Relay ctx cancellation: the server answers the UNWATCH with a
	// WATCH_END, which ends the watch and closes the channel.
	go func() {
		select {
		case <-ctx.Done():
			c.mu.Lock()
			active := c.watchers[w.id] == w
			c.mu.Unlock()
			if active {
				c.write(marshalUnwatch(w.id))
			}
			w.end(errors.New("clientapi: watch canceled"))
		case <-w.done:
		case <-c.readDone:
		}
	}()
	return w.out, nil
}

// Close terminates the session. Unresolved Pendings fail; an active
// subscription receives a terminal error event.
func (c *Client) Close() error {
	c.conn.Close()
	<-c.readDone // fail() has run; pendings and subscription are resolved
	return nil
}

// finish delivers the subscription's terminal error (if any) and closes
// its channel. The error is a contract signal — ErrCompacted means the
// consumer has a gap it must handle — so it must not be droppable by a full
// buffer: the send blocks until the consumer drains or its ctx ends. It
// runs on its own goroutine so a consumer that abandoned the channel
// without canceling stalls only this goroutine (until its ctx dies), never
// the session's read loop or Close.
func (s *subscription) finish(err error) {
	if err == nil {
		close(s.ch)
		return
	}
	go func() {
		select {
		case s.ch <- BlockEvent{Err: err}:
		case <-s.ctx.Done():
		}
		close(s.ch)
	}()
}

// readLoop owns the connection's read half and dispatches every inbound
// frame: ACKs and COMMITs resolve pendings, BLOCK/STREAM_END feed the
// subscription, INFO_REPLY answers waiters.
func (c *Client) readLoop() {
	var err error
	for {
		var kind uint8
		var payload []byte
		kind, payload, err = readFrame(c.br)
		if err != nil {
			break
		}
		switch kind {
		case kindAck:
			m, derr := decodeAck(payload)
			if derr != nil {
				err = derr
				break
			}
			c.mu.Lock()
			e := c.pending[m.Seq]
			if e != nil && m.Err != "" {
				delete(c.pending, m.Seq)
			}
			c.mu.Unlock()
			if e == nil {
				continue
			}
			if m.Err != "" {
				e.resolve(Receipt{}, fmt.Errorf("clientapi: submit rejected: %s", m.Err))
			} else {
				e.p.ack()
			}
		case kindCommit:
			m, derr := decodeCommit(payload)
			if derr != nil {
				err = derr
				break
			}
			c.mu.Lock()
			e := c.pending[m.Seq]
			delete(c.pending, m.Seq)
			c.mu.Unlock()
			if e != nil {
				e.resolve(m.Receipt, nil)
			}
		case kindBlock:
			m, derr := decodeBlockMsg(payload)
			if derr != nil {
				err = derr
				break
			}
			c.mu.Lock()
			sub := c.sub
			c.mu.Unlock()
			if sub == nil {
				continue
			}
			// Prefer delivery: a canceled consumer that is still draining gets
			// every in-flight frame in order until STREAM_END. Only a consumer
			// that stopped receiving (buffer full, ctx done) loses the tail.
			select {
			case sub.ch <- BlockEvent{Worker: m.Worker, Block: m.Block}:
			default:
				select {
				case sub.ch <- BlockEvent{Worker: m.Worker, Block: m.Block}:
				case <-sub.ctx.Done():
					// Consumer gone; drop the event. STREAM_END follows (the
					// unsubscribe relay fired) and detaches the subscription.
				}
			}
		case kindStreamEnd:
			streamErr, derr := decodeStreamEnd(payload)
			if derr != nil {
				err = derr
				break
			}
			c.mu.Lock()
			sub := c.sub
			c.sub = nil
			c.mu.Unlock()
			if sub != nil {
				close(sub.ended)
				sub.finish(streamErr)
			}
		case kindGetReply:
			m, derr := decodeGetReply(payload)
			if derr != nil {
				err = derr
				break
			}
			c.mu.Lock()
			ch := c.getW[m.ID]
			delete(c.getW, m.ID)
			c.mu.Unlock()
			if ch != nil {
				ch <- m
			}
		case kindScanReply:
			m, derr := decodeScanReply(payload)
			if derr != nil {
				err = derr
				break
			}
			c.mu.Lock()
			ch := c.scanW[m.ID]
			delete(c.scanW, m.ID)
			c.mu.Unlock()
			if ch != nil {
				ch <- m
			}
		case kindWatchEvent:
			m, derr := decodeWatchEvent(payload)
			if derr != nil {
				err = derr
				break
			}
			c.mu.Lock()
			w := c.watchers[m.ID]
			c.mu.Unlock()
			if w != nil {
				w.offer(m.Upd)
			}
		case kindWatchEnd:
			m, derr := decodeWatchEnd(payload)
			if derr != nil {
				err = derr
				break
			}
			c.mu.Lock()
			w := c.watchers[m.ID]
			delete(c.watchers, m.ID)
			c.mu.Unlock()
			if w != nil {
				w.end(readErr(m.Code, m.Err))
			}
		case kindInfoReply:
			info, derr := decodeInfoReply(payload)
			if derr != nil {
				err = derr
				break
			}
			c.mu.Lock()
			var ch chan Info
			if len(c.infoC) > 0 {
				ch = c.infoC[0]
				c.infoC = c.infoC[1:]
			}
			c.mu.Unlock()
			if ch != nil {
				ch <- info
			}
		default:
			err = fmt.Errorf("clientapi: unexpected frame kind %d", kind)
		}
		if err != nil {
			break
		}
	}
	c.fail(err)
}

// fail tears the session down after the read loop exits: every unresolved
// Pending fails, the subscription ends with a terminal error, info waiters
// unblock (via readDone).
func (c *Client) fail(err error) {
	if err == nil {
		err = errors.New("clientapi: connection closed")
	}
	sessionErr := fmt.Errorf("clientapi: session lost: %w", err)
	c.mu.Lock()
	c.closed = true
	c.readErr = sessionErr
	pend := c.pending
	c.pending = make(map[uint64]*pendingEntry)
	sub := c.sub
	c.sub = nil
	c.infoC = nil
	watchers := c.watchers
	c.watchers = make(map[uint64]*clientWatch)
	c.getW = make(map[uint64]chan getReplyMsg)
	c.scanW = make(map[uint64]chan scanReplyMsg)
	c.mu.Unlock()
	c.conn.Close()
	for _, e := range pend {
		e.resolve(Receipt{}, sessionErr)
	}
	for _, w := range watchers {
		w.end(sessionErr)
	}
	if sub != nil {
		close(sub.ended)
		sub.finish(sessionErr)
	}
	// Get/Scan waiters unblock via readDone (set readErr first, above).
	close(c.readDone)
}
