package transport

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/flcrypto"
	"repro/internal/metrics"
)

// MaxFrame bounds a single TCP frame. Blocks of 1000 × 4KiB transactions fit
// comfortably; anything larger is a protocol error or an attack.
const MaxFrame = 64 << 20 // 64 MiB

// readBufSize is each inbound connection's read buffer: a few hundred
// protocol messages (headers, votes) per read syscall.
const readBufSize = 64 << 10

// TCPConfig configures one node's attachment to a TCP clique.
type TCPConfig struct {
	// ID is the local node.
	ID flcrypto.NodeID
	// Addrs maps node id → host:port for every cluster member, so Addrs
	// doubles as the membership list.
	Addrs []string
	// DialTimeout bounds each connection attempt (default 3s).
	DialTimeout time.Duration
	// RetryInterval is the pause between reconnection attempts (default 500ms).
	RetryInterval time.Duration
	// SendQueueCap bounds each peer's outbound queue in frames (default
	// 4096). When a peer is dead or too slow to drain its queue, the oldest
	// frames are dropped and counted — mirroring the mux mailbox design —
	// so one unreachable peer cannot accumulate unbounded memory. Every
	// protocol layer tolerates the loss: consensus messages are re-pulled
	// or re-broadcast, and bodies/blocks have explicit pull fallbacks.
	SendQueueCap int
}

// TCPEndpoint implements Endpoint over a TCP clique: for each ordered pair
// (i→j) node i maintains one outbound connection to j, identified by a
// 4-byte hello frame carrying i's id. Outbound messages queue in a bounded
// per-peer buffer (SendQueueCap, drop-oldest on overflow) and a writer
// goroutine drains it, reconnecting with backoff on failure — the
// retransmission construction of §3.1 that turns fair-lossy links into
// reliable ones, with the bound keeping a dead or slow peer from
// accumulating unbounded memory under saturating load.
type TCPEndpoint struct {
	cfg  TCPConfig
	ln   net.Listener
	mbox *mailbox

	// flushes records the coalesced write batches: each writer drains its
	// whole queue and pushes it through one vectored write, so the mean
	// batch size is the syscall amortization factor under load.
	flushes metrics.BatchStats

	mu     sync.Mutex
	peers  []*tcpPeer
	conns  map[net.Conn]bool // accepted connections, closed on shutdown
	closed bool
	wg     sync.WaitGroup
	done   chan struct{}
}

type tcpPeer struct {
	ep   *TCPEndpoint
	id   flcrypto.NodeID
	addr string

	mu      sync.Mutex
	queue   [][]byte
	wake    chan struct{}
	dropped atomic.Uint64
}

// trimLocked enforces the per-peer queue bound, dropping the oldest frames.
// Callers hold p.mu.
func (p *tcpPeer) trimLocked() {
	if over := len(p.queue) - p.ep.cfg.SendQueueCap; over > 0 {
		p.dropped.Add(uint64(over))
		p.queue = p.queue[over:]
	}
}

// NewTCPEndpoint binds cfg.Addrs[cfg.ID] and starts the accept loop and one
// writer per peer. It returns once the listener is up; peer connections are
// established lazily and retried forever, so cluster members may start in
// any order.
func NewTCPEndpoint(cfg TCPConfig) (*TCPEndpoint, error) {
	if int(cfg.ID) < 0 || int(cfg.ID) >= len(cfg.Addrs) {
		return nil, fmt.Errorf("transport: id %d out of range for %d addrs", cfg.ID, len(cfg.Addrs))
	}
	if cfg.DialTimeout == 0 {
		cfg.DialTimeout = 3 * time.Second
	}
	if cfg.RetryInterval == 0 {
		cfg.RetryInterval = 500 * time.Millisecond
	}
	if cfg.SendQueueCap == 0 {
		cfg.SendQueueCap = 4096
	}
	ln, err := net.Listen("tcp", cfg.Addrs[cfg.ID])
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", cfg.Addrs[cfg.ID], err)
	}
	ep := &TCPEndpoint{
		cfg:   cfg,
		ln:    ln,
		mbox:  newMailbox(),
		conns: make(map[net.Conn]bool),
		done:  make(chan struct{}),
	}
	ep.peers = make([]*tcpPeer, len(cfg.Addrs))
	for i, addr := range cfg.Addrs {
		if flcrypto.NodeID(i) == cfg.ID {
			continue
		}
		p := &tcpPeer{ep: ep, id: flcrypto.NodeID(i), addr: addr, wake: make(chan struct{}, 1)}
		ep.peers[i] = p
		ep.wg.Add(1)
		go p.writeLoop()
	}
	ep.wg.Add(1)
	go ep.acceptLoop()
	return ep, nil
}

// ID implements Endpoint.
func (e *TCPEndpoint) ID() flcrypto.NodeID { return e.cfg.ID }

// N implements Endpoint.
func (e *TCPEndpoint) N() int { return len(e.cfg.Addrs) }

// Recv implements Endpoint.
func (e *TCPEndpoint) Recv() <-chan Message { return e.mbox.out }

// Addr returns the bound listen address (useful with ":0" configs in tests).
func (e *TCPEndpoint) Addr() string { return e.ln.Addr().String() }

// SendDrops reports how many outbound frames to peer `to` have been dropped
// by the bounded send queue (0 for self or unknown peers).
func (e *TCPEndpoint) SendDrops(to flcrypto.NodeID) uint64 {
	if int(to) < 0 || int(to) >= len(e.peers) || e.peers[to] == nil {
		return 0
	}
	return e.peers[to].dropped.Load()
}

// TotalSendDrops sums SendDrops over all peers.
func (e *TCPEndpoint) TotalSendDrops() uint64 {
	var total uint64
	for _, p := range e.peers {
		if p != nil {
			total += p.dropped.Load()
		}
	}
	return total
}

// FlushStats reports the coalesced-write batches across all peer writers:
// how many vectored flushes ran, how many frames they carried, and the
// largest single flush.
func (e *TCPEndpoint) FlushStats() metrics.BatchSnapshot {
	return e.flushes.Snapshot()
}

// Send implements Endpoint.
func (e *TCPEndpoint) Send(to flcrypto.NodeID, payload []byte) error {
	e.mu.Lock()
	closed := e.closed
	e.mu.Unlock()
	if closed {
		return ErrClosed
	}
	if int(to) < 0 || int(to) >= len(e.cfg.Addrs) {
		return fmt.Errorf("transport: send to unknown node %d", to)
	}
	if to == e.cfg.ID {
		e.mbox.put(Message{From: e.cfg.ID, Payload: payload})
		return nil
	}
	p := e.peers[to]
	p.mu.Lock()
	p.queue = append(p.queue, payload)
	p.trimLocked()
	p.mu.Unlock()
	select {
	case p.wake <- struct{}{}:
	default:
	}
	return nil
}

// Broadcast implements Endpoint. One payload slice is shared across every
// peer queue and the local mailbox — no per-peer copy; queues and readers
// only ever read it (senders hand ownership of the slice to the endpoint).
// The closed check and per-peer bounds checks are hoisted out of the loop,
// so a broadcast costs one endpoint lock plus one queue lock per peer.
func (e *TCPEndpoint) Broadcast(payload []byte) error {
	e.mu.Lock()
	closed := e.closed
	e.mu.Unlock()
	if closed {
		return ErrClosed
	}
	e.mbox.put(Message{From: e.cfg.ID, Payload: payload})
	for _, p := range e.peers {
		if p == nil {
			continue
		}
		p.mu.Lock()
		p.queue = append(p.queue, payload)
		p.trimLocked()
		p.mu.Unlock()
		select {
		case p.wake <- struct{}{}:
		default:
		}
	}
	return nil
}

// Close implements Endpoint.
func (e *TCPEndpoint) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return ErrClosed
	}
	e.closed = true
	conns := make([]net.Conn, 0, len(e.conns))
	for c := range e.conns {
		conns = append(conns, c)
	}
	e.mu.Unlock()
	close(e.done)
	e.ln.Close()
	// Unblock reader goroutines parked in ReadFull on live connections;
	// without this, Close deadlocks until the *peer* shuts down.
	for _, c := range conns {
		c.Close()
	}
	e.mbox.close()
	e.wg.Wait()
	return nil
}

func (e *TCPEndpoint) acceptLoop() {
	defer e.wg.Done()
	for {
		conn, err := e.ln.Accept()
		if err != nil {
			select {
			case <-e.done:
				return
			default:
				continue
			}
		}
		e.wg.Add(1)
		go e.readConn(conn)
	}
}

func (e *TCPEndpoint) readConn(conn net.Conn) {
	defer e.wg.Done()
	defer conn.Close()
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.conns[conn] = true
	e.mu.Unlock()
	defer func() {
		e.mu.Lock()
		delete(e.conns, conn)
		e.mu.Unlock()
	}()
	// One buffered reader from the first byte on: a frame costs a share of a
	// read syscall instead of two, and no byte of the stream is stranded in a
	// buffer the loop below does not use. Payloads larger than the buffer are
	// read straight into their own slice.
	br := bufio.NewReaderSize(conn, readBufSize)
	var hello [4]byte
	if _, err := io.ReadFull(br, hello[:]); err != nil {
		return
	}
	from := flcrypto.NodeID(binary.BigEndian.Uint32(hello[:]))
	if int(from) < 0 || int(from) >= len(e.cfg.Addrs) || from == e.cfg.ID {
		return
	}
	for {
		select {
		case <-e.done:
			return
		default:
		}
		var lenBuf [4]byte
		if _, err := io.ReadFull(br, lenBuf[:]); err != nil {
			return
		}
		n := binary.BigEndian.Uint32(lenBuf[:])
		if n > MaxFrame {
			return // protocol violation; drop the connection
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(br, payload); err != nil {
			return
		}
		e.mbox.put(Message{From: from, Payload: payload})
	}
}

func (p *tcpPeer) writeLoop() {
	defer p.ep.wg.Done()
	var conn net.Conn
	defer func() {
		if conn != nil {
			conn.Close()
		}
	}()
	for {
		// Wait for work. After a wake, loop back to re-check the queue
		// instead of assuming the token maps to a pending message: a wake
		// token can be stale (its message was drained by a previous batch),
		// and conversely a message enqueued between the last drain and this
		// check rides on a token consumed here. Re-checking closes the
		// window where such a message would sit in the queue until the
		// *next* wake.
		p.mu.Lock()
		empty := len(p.queue) == 0
		p.mu.Unlock()
		if empty {
			select {
			case <-p.ep.done:
				return
			case <-p.wake:
			}
			continue
		}
		select {
		case <-p.ep.done:
			return
		default:
		}
		if conn == nil {
			c, err := p.dial()
			if err != nil {
				select {
				case <-p.ep.done:
					return
				case <-time.After(p.ep.cfg.RetryInterval):
				}
				continue
			}
			conn = c
		}
		p.mu.Lock()
		batch := p.queue
		p.queue = nil
		p.mu.Unlock()
		if err := p.flush(conn, batch); err != nil {
			conn.Close()
			conn = nil
		}
	}
}

// flush writes a whole drained batch through one vectored write
// (net.Buffers → writev): one syscall per batch instead of two per frame,
// with the 4-byte length prefixes carved from a single backing array. On
// error the frames that were not fully written are requeued ahead of any
// newly enqueued messages; the frame cut mid-write may arrive twice after
// reconnect in rare cases, which upper layers tolerate (all protocol
// messages are idempotent by construction).
func (p *tcpPeer) flush(conn net.Conn, batch [][]byte) error {
	hdrs := make([]byte, 4*len(batch))
	bufs := make(net.Buffers, 0, 2*len(batch))
	for i, payload := range batch {
		h := hdrs[4*i : 4*i+4 : 4*i+4]
		binary.BigEndian.PutUint32(h, uint32(len(payload)))
		bufs = append(bufs, h, payload)
	}
	n, err := bufs.WriteTo(conn)
	if err == nil {
		p.ep.flushes.Observe(len(batch))
		return nil
	}
	// Requeue from the first frame that was not written in full.
	i := 0
	for i < len(batch) && n >= int64(4+len(batch[i])) {
		n -= int64(4 + len(batch[i]))
		i++
	}
	p.mu.Lock()
	p.queue = append(batch[i:], p.queue...)
	p.trimLocked()
	p.mu.Unlock()
	return err
}

func (p *tcpPeer) dial() (net.Conn, error) {
	conn, err := net.DialTimeout("tcp", p.addr, p.ep.cfg.DialTimeout)
	if err != nil {
		return nil, err
	}
	var hello [4]byte
	binary.BigEndian.PutUint32(hello[:], uint32(p.ep.cfg.ID))
	if _, err := conn.Write(hello[:]); err != nil {
		conn.Close()
		return nil, err
	}
	return conn, nil
}
