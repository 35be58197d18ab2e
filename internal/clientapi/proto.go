// Package clientapi is FireLedger's application-facing client protocol: a
// versioned, length-framed TCP wire format plus the server and client that
// speak it, and the fan-out hub that serves block streams to both remote and
// in-process sessions.
//
// One connection is one session. The conversation:
//
//	client                              server
//	  | HELLO  {magic, version, id}  →    |   version + identity handshake
//	  |  ←  WELCOME {version, node, n, ω} |   (or an error, then close)
//	  | SUBMIT {seq, payload}  →          |
//	  |  ←  ACK {seq}                     |   accepted into a worker pool
//	  |  ←  COMMIT {seq, w, r, hash}      |   asynchronous, when definite
//	  | SUBSCRIBE {worker, round, filter} |   filter clause since 1.3:
//	  |  ←  BLOCK {w, block} …            |   history from the log, then live
//	  | INFO →  /  ← INFO_REPLY           |
//	  | GET {id, key, token}  →           |   state reads (1.2): served from
//	  |  ←  GET_REPLY {id, value}         |   the node's ledger replica once
//	  | SCAN {id, begin, end, token}  →   |   its applied frontier covers the
//	  |  ←  SCAN_REPLY {id, entries}      |   token — take the token from a
//	  | WATCH {id, key, token}  →         |   commit Receipt to read your own
//	  |  ←  WATCH_EVENT {id, value} …     |   committed write
//	  | UNWATCH {id} →  /  ← WATCH_END    |
//
// Framing is uint32 big-endian length, then one kind byte, then the kind's
// payload in the deterministic codec of internal/types. SUBMIT payloads are
// opaque; COMMIT receipts identify the definite block (worker, round, header
// hash) the write landed in. SUBSCRIBE carries a (worker, round) cursor into
// the merged definite stream: the historical prefix is served from the
// node's persistent BlockLog (or in-memory chain), then the subscription
// switches to the live delivery tail — reconnecting with the cursor just
// past the last observed block resumes with no gaps and no duplicates.
// Since 1.3 SUBSCRIBE additionally carries a Filter clause (client-id and/or
// transaction-payload-prefix conditions): the server evaluates the filter
// once per block and sends only the blocks carrying at least one matching
// transaction, so an end-user application streams its own traffic instead
// of the whole ledger.
package clientapi

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/flcrypto"
	"repro/internal/statemachine"
	"repro/internal/store"
	"repro/internal/types"
)

// Magic opens every HELLO, guarding the port against stray connections.
const Magic uint32 = 0x464C_4331 // "FLC1"

// VersionMajor and VersionMinor identify the wire protocol this build
// speaks, packed into the single Version word the HELLO/WELCOME handshake
// exchanges (major in the high 16 bits, minor in the low 16). The handshake
// is exact-match on the packed word: a server rejects clients of any other
// version in the WELCOME, so incompatible frames are never interpreted.
// Bump the major on any layout change to an existing frame; bump the minor
// when a frame gains fields or new frame kinds appear (1.1: INFO_REPLY
// carries PoolPending; 1.2: the GET/SCAN/WATCH state-read frames; 1.3:
// SUBSCRIBE carries a filter clause).
const (
	VersionMajor uint32 = 1
	VersionMinor uint32 = 3
	Version      uint32 = VersionMajor<<16 | VersionMinor
)

// MaxFrame bounds one protocol frame (a BLOCK frame carries one full block).
const MaxFrame = 64 << 20

// Frame kinds.
const (
	kindHello       uint8 = 1  // client→server: magic, version, client id
	kindWelcome     uint8 = 2  // server→client: version, node, n, ω, error
	kindSubmit      uint8 = 3  // client→server: seq, payload
	kindAck         uint8 = 4  // server→client: seq, error ("" = accepted)
	kindCommit      uint8 = 5  // server→client: seq, worker, round, hash
	kindSubscribe   uint8 = 6  // client→server: cursor (worker, round) + filter (1.3)
	kindBlock       uint8 = 7  // server→client: worker, block
	kindStreamEnd   uint8 = 8  // server→client: subscription over, error
	kindInfo        uint8 = 9  // client→server: (empty)
	kindInfoReply   uint8 = 10 // server→client: node, n, ω, delivered counts
	kindUnsubscribe uint8 = 11 // client→server: (empty) stop the stream
	// State-read frames, since 1.2. Every request carries a client-assigned
	// id: the server answers reads on their own goroutines (a consistency
	// token may block on the applied frontier), so replies return in
	// completion order, not request order.
	kindGet        uint8 = 12 // client→server: id, key, token
	kindGetReply   uint8 = 13 // server→client: id, found, value, code, error
	kindScan       uint8 = 14 // client→server: id, begin, end, max, token
	kindScanReply  uint8 = 15 // server→client: id, entries, code, error
	kindWatch      uint8 = 16 // client→server: id, key, token
	kindWatchEvent uint8 = 17 // server→client: id, one KeyUpdate
	kindWatchEnd   uint8 = 18 // server→client: id, code, error — watch over
	kindUnwatch    uint8 = 19 // client→server: id — stop one watch
)

// MaxScanEntries caps one SCAN reply (and the in-process Scan, for parity):
// a larger range is paged by reissuing the scan with begin just past the
// last returned key. The server additionally bounds a reply's total value
// bytes to fit MaxFrame, so a scan over huge values may return fewer
// entries.
const MaxScanEntries = 4096

// ErrFrameTooLarge reports a length prefix above MaxFrame.
var ErrFrameTooLarge = errors.New("clientapi: frame exceeds MaxFrame")

// framePrealloc caps what readFrame allocates before a frame's bytes have
// arrived: a peer that declares MaxFrame and goes silent costs this much, not
// 64 MiB. Submit frames and blocks of up to 1,000 × 512 B fit in one
// allocation of exactly their size.
const framePrealloc = 1 << 20

// readFrame reads one length-prefixed frame, returning its kind and payload.
// The payload is freshly allocated per frame, so decoded values (including
// blocks, whose codec retains the wire slice) may alias it freely. A frame
// larger than framePrealloc grows its buffer as its bytes arrive.
func readFrame(r io.Reader) (kind uint8, payload []byte, err error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(lenBuf[:])
	if n < 1 {
		return 0, nil, errors.New("clientapi: empty frame")
	}
	if n > MaxFrame {
		return 0, nil, ErrFrameTooLarge
	}
	buf := make([]byte, min(int(n), framePrealloc))
	for read := 0; ; {
		m, err := io.ReadFull(r, buf[read:])
		if err == io.EOF && read > 0 {
			err = io.ErrUnexpectedEOF
		}
		if err != nil {
			return 0, nil, err
		}
		if read += m; read == int(n) {
			return buf[0], buf[1:], nil
		}
		buf = append(buf, make([]byte, min(int(n)-read, read))...)
	}
}

// frame starts a wire frame of the given kind, reserving the length prefix;
// finish it with finishFrame once the payload is encoded. Frames are built
// on plain (non-pooled) encoders because they are retained in send queues.
func frame(kind uint8, sizeHint int) *types.Encoder {
	e := types.NewEncoder(5 + sizeHint)
	e.Uint32(0) // length, patched by finishFrame
	e.Uint8(kind)
	return e
}

// finishFrame patches the length prefix and returns the complete wire bytes.
func finishFrame(e *types.Encoder) []byte {
	buf := e.Bytes()
	binary.BigEndian.PutUint32(buf[0:4], uint32(len(buf)-4))
	return buf
}

// ---- message bodies ----

type helloMsg struct {
	Magic    uint32
	Version  uint32
	ClientID uint64
}

func marshalHello(m helloMsg) []byte {
	e := frame(kindHello, 16)
	e.Uint32(m.Magic)
	e.Uint32(m.Version)
	e.Uint64(m.ClientID)
	return finishFrame(e)
}

func decodeHello(payload []byte) (helloMsg, error) {
	d := types.NewDecoder(payload)
	m := helloMsg{Magic: d.Uint32(), Version: d.Uint32(), ClientID: d.Uint64()}
	return m, d.Finish()
}

type welcomeMsg struct {
	Version uint32
	Node    int64
	N       uint32
	Workers uint32
	Err     string
}

func marshalWelcome(m welcomeMsg) []byte {
	e := frame(kindWelcome, 24+len(m.Err))
	e.Uint32(m.Version)
	e.Int64(m.Node)
	e.Uint32(m.N)
	e.Uint32(m.Workers)
	e.Bytes32([]byte(m.Err))
	return finishFrame(e)
}

func decodeWelcome(payload []byte) (welcomeMsg, error) {
	d := types.NewDecoder(payload)
	m := welcomeMsg{Version: d.Uint32(), Node: d.Int64(), N: d.Uint32(), Workers: d.Uint32(), Err: string(d.Bytes32())}
	return m, d.Finish()
}

type submitMsg struct {
	Seq     uint64
	Payload []byte
}

func marshalSubmit(m submitMsg) []byte {
	e := frame(kindSubmit, 12+len(m.Payload))
	e.Uint64(m.Seq)
	e.Bytes32(m.Payload)
	return finishFrame(e)
}

func decodeSubmit(payload []byte) (submitMsg, error) {
	d := types.NewDecoder(payload)
	m := submitMsg{Seq: d.Uint64(), Payload: d.Bytes32()}
	return m, d.Finish()
}

type ackMsg struct {
	Seq uint64
	Err string
}

func marshalAck(m ackMsg) []byte {
	e := frame(kindAck, 12+len(m.Err))
	e.Uint64(m.Seq)
	e.Bytes32([]byte(m.Err))
	return finishFrame(e)
}

func decodeAck(payload []byte) (ackMsg, error) {
	d := types.NewDecoder(payload)
	m := ackMsg{Seq: d.Uint64(), Err: string(d.Bytes32())}
	return m, d.Finish()
}

type commitMsg struct {
	Seq     uint64
	Receipt Receipt
}

func marshalCommit(m commitMsg) []byte {
	e := frame(kindCommit, 52)
	e.Uint64(m.Seq)
	e.Uint32(m.Receipt.Worker)
	e.Uint64(m.Receipt.Round)
	e.Hash(m.Receipt.BlockHash)
	return finishFrame(e)
}

func decodeCommit(payload []byte) (commitMsg, error) {
	d := types.NewDecoder(payload)
	var m commitMsg
	m.Seq = d.Uint64()
	m.Receipt.Worker = d.Uint32()
	m.Receipt.Round = d.Uint64()
	m.Receipt.BlockHash = d.Hash()
	return m, d.Finish()
}

// Filter restricts a block subscription (wire protocol 1.3). A transaction
// matches when it satisfies every set condition; a block is delivered iff it
// carries at least one matching transaction — the subscriber receives whole
// blocks (the shared encode-once frame), filtered at block granularity. The
// zero Filter matches every block.
type Filter struct {
	// HasClient, when true, requires a transaction submitted by Client.
	HasClient bool
	Client    uint64
	// TxPrefix, when non-empty, requires a transaction whose payload starts
	// with these bytes.
	TxPrefix []byte
}

// StreamOption narrows a block subscription with a server-side filter
// (wire protocol 1.3). Options combine conjunctively: every set condition
// must hold on the same transaction for a block to be delivered.
type StreamOption func(*Filter)

// WithClientFilter delivers only blocks carrying a transaction submitted by
// client — an end-user app streaming its own writes, not the whole ledger.
func WithClientFilter(client uint64) StreamOption {
	return func(f *Filter) { f.HasClient, f.Client = true, client }
}

// WithTxPrefix delivers only blocks carrying a transaction whose payload
// starts with prefix.
func WithTxPrefix(prefix []byte) StreamOption {
	return func(f *Filter) { f.TxPrefix = append([]byte(nil), prefix...) }
}

// BuildFilter folds options into a wire Filter.
func BuildFilter(opts ...StreamOption) Filter {
	var f Filter
	for _, o := range opts {
		o(&f)
	}
	return f
}

// Empty reports whether the filter matches everything.
func (f Filter) Empty() bool { return !f.HasClient && len(f.TxPrefix) == 0 }

// MatchTx reports whether one transaction satisfies every set condition.
func (f Filter) MatchTx(tx *types.Transaction) bool {
	if f.HasClient && tx.Client != f.Client {
		return false
	}
	if len(f.TxPrefix) > 0 {
		if len(tx.Payload) < len(f.TxPrefix) || string(tx.Payload[:len(f.TxPrefix)]) != string(f.TxPrefix) {
			return false
		}
	}
	return true
}

// MatchBlock reports whether the block carries at least one matching
// transaction (always true for the empty filter, even on empty blocks).
func (f Filter) MatchBlock(body *types.Body) bool {
	if f.Empty() {
		return true
	}
	for i := range body.Txs {
		if f.MatchTx(&body.Txs[i]) {
			return true
		}
	}
	return false
}

// key renders the filter as a comparable cache key (hub verdict caching).
func (f Filter) key() string {
	var b [9]byte
	if f.HasClient {
		b[0] = 1
		binary.BigEndian.PutUint64(b[1:], f.Client)
	}
	return string(b[:]) + string(f.TxPrefix)
}

// SUBSCRIBE filter-clause flags (1.3).
const (
	subFilterClient uint8 = 1 << 0
	subFilterPrefix uint8 = 1 << 1
)

func marshalSubscribe(c Cursor, f Filter) []byte {
	e := frame(kindSubscribe, 26+len(f.TxPrefix))
	e.Uint32(c.Worker)
	e.Uint64(c.Round)
	var flags uint8
	if f.HasClient {
		flags |= subFilterClient
	}
	if len(f.TxPrefix) > 0 {
		flags |= subFilterPrefix
	}
	e.Uint8(flags)
	if f.HasClient {
		e.Uint64(f.Client)
	}
	if len(f.TxPrefix) > 0 {
		e.Bytes32(f.TxPrefix)
	}
	return finishFrame(e)
}

func decodeSubscribe(payload []byte) (Cursor, Filter, error) {
	d := types.NewDecoder(payload)
	c := Cursor{Worker: d.Uint32(), Round: d.Uint64()}
	var f Filter
	flags := d.Uint8()
	if flags&subFilterClient != 0 {
		f.HasClient = true
		f.Client = d.Uint64()
	}
	if flags&subFilterPrefix != 0 {
		f.TxPrefix = append([]byte(nil), d.Bytes32()...)
	}
	return c, f, d.Finish()
}

type blockMsg struct {
	Worker uint32
	Block  types.Block
}

func marshalBlock(m blockMsg) []byte {
	e := frame(kindBlock, 4+256+m.Block.Body.Size())
	e.Uint32(m.Worker)
	m.Block.Encode(e)
	return finishFrame(e)
}

func decodeBlockMsg(payload []byte) (blockMsg, error) {
	d := types.NewDecoder(payload)
	var m blockMsg
	m.Worker = d.Uint32()
	m.Block = types.DecodeBlock(d)
	return m, d.Finish()
}

// STREAM_END codes: why a subscription ended. The code travels alongside
// the human-readable message so typed contracts survive the wire — a remote
// consumer must be able to errors.Is a compaction gap exactly like an
// in-process one.
const (
	streamEndClean     uint8 = 0 // client unsubscribed
	streamEndError     uint8 = 1 // transport or internal failure
	streamEndCompacted uint8 = 2 // cursor predates retained history
)

func marshalStreamEnd(err error) []byte {
	code := streamEndClean
	if err != nil {
		code = streamEndError
		if errors.Is(err, store.ErrCompacted) {
			code = streamEndCompacted
		}
	}
	msg := errString(err)
	e := frame(kindStreamEnd, 5+len(msg))
	e.Uint8(code)
	e.Bytes32([]byte(msg))
	return finishFrame(e)
}

// decodeStreamEnd returns the stream's terminal error (nil for a clean
// unsubscribe) and any decode failure.
func decodeStreamEnd(payload []byte) (error, error) {
	d := types.NewDecoder(payload)
	code := d.Uint8()
	msg := string(d.Bytes32())
	if derr := d.Finish(); derr != nil {
		return nil, derr
	}
	switch code {
	case streamEndClean:
		return nil, nil
	case streamEndCompacted:
		return fmt.Errorf("clientapi: %s: %w", msg, store.ErrCompacted), nil
	default:
		return fmt.Errorf("clientapi: %s", msg), nil
	}
}

func marshalEmpty(kind uint8) []byte { return finishFrame(frame(kind, 0)) }

func marshalInfoReply(info Info) []byte {
	e := frame(kindInfoReply, 44)
	e.Int64(info.Node)
	e.Uint32(uint32(info.N))
	e.Uint32(uint32(info.Workers))
	e.Uint64(info.DeliveredBlocks)
	e.Uint64(info.DeliveredTxs)
	e.Uint64(uint64(info.PoolPending))
	return finishFrame(e)
}

func decodeInfoReply(payload []byte) (Info, error) {
	d := types.NewDecoder(payload)
	var info Info
	info.Node = d.Int64()
	info.N = int(d.Uint32())
	info.Workers = int(d.Uint32())
	info.DeliveredBlocks = d.Uint64()
	info.DeliveredTxs = d.Uint64()
	info.PoolPending = int(d.Uint64())
	return info, d.Finish()
}

// Read-reply codes: why a state read failed. Like STREAM_END codes, the
// typed cause travels alongside the message so errors.Is survives the wire.
const (
	readOK      uint8 = 0
	readNoState uint8 = 1 // node has no queryable state backend
	readError   uint8 = 2 // anything else (bad token, internal failure)
)

// readErr reconstructs a typed error from a reply's code + message.
func readErr(code uint8, msg string) error {
	switch code {
	case readOK:
		return nil
	case readNoState:
		return fmt.Errorf("clientapi: %s: %w", msg, ErrNoState)
	default:
		return fmt.Errorf("clientapi: %s", msg)
	}
}

// readCode classifies a read failure for the wire.
func readCode(err error) uint8 {
	switch {
	case err == nil:
		return readOK
	case errors.Is(err, ErrNoState):
		return readNoState
	default:
		return readError
	}
}

type getMsg struct {
	ID  uint64
	Key string
	At  ReadToken
}

func marshalGet(m getMsg) []byte {
	e := frame(kindGet, 28+len(m.Key))
	e.Uint64(m.ID)
	e.Bytes32([]byte(m.Key))
	e.Uint32(m.At.Worker)
	e.Uint64(m.At.Round)
	return finishFrame(e)
}

func decodeGet(payload []byte) (getMsg, error) {
	d := types.NewDecoder(payload)
	m := getMsg{ID: d.Uint64(), Key: string(d.Bytes32()), At: ReadToken{Worker: d.Uint32(), Round: d.Uint64()}}
	return m, d.Finish()
}

type getReplyMsg struct {
	ID    uint64
	Found bool
	Value []byte
	Code  uint8
	Err   string
}

func marshalGetReply(m getReplyMsg) []byte {
	e := frame(kindGetReply, 20+len(m.Value)+len(m.Err))
	e.Uint64(m.ID)
	e.Bool(m.Found)
	e.Bytes32(m.Value)
	e.Uint8(m.Code)
	e.Bytes32([]byte(m.Err))
	return finishFrame(e)
}

func decodeGetReply(payload []byte) (getReplyMsg, error) {
	d := types.NewDecoder(payload)
	var m getReplyMsg
	m.ID = d.Uint64()
	m.Found = d.Bool()
	m.Value = append([]byte(nil), d.Bytes32()...)
	m.Code = d.Uint8()
	m.Err = string(d.Bytes32())
	return m, d.Finish()
}

type scanMsg struct {
	ID         uint64
	Begin, End string
	Max        uint32
	At         ReadToken
}

func marshalScan(m scanMsg) []byte {
	e := frame(kindScan, 36+len(m.Begin)+len(m.End))
	e.Uint64(m.ID)
	e.Bytes32([]byte(m.Begin))
	e.Bytes32([]byte(m.End))
	e.Uint32(m.Max)
	e.Uint32(m.At.Worker)
	e.Uint64(m.At.Round)
	return finishFrame(e)
}

func decodeScan(payload []byte) (scanMsg, error) {
	d := types.NewDecoder(payload)
	m := scanMsg{
		ID:    d.Uint64(),
		Begin: string(d.Bytes32()),
		End:   string(d.Bytes32()),
		Max:   d.Uint32(),
		At:    ReadToken{Worker: d.Uint32(), Round: d.Uint64()},
	}
	return m, d.Finish()
}

type scanReplyMsg struct {
	ID      uint64
	Entries []Entry
	Code    uint8
	Err     string
}

func marshalScanReply(m scanReplyMsg) []byte {
	size := 24 + len(m.Err)
	for i := range m.Entries {
		size += 8 + len(m.Entries[i].Key) + len(m.Entries[i].Value)
	}
	e := frame(kindScanReply, size)
	e.Uint64(m.ID)
	e.Uint32(uint32(len(m.Entries)))
	for i := range m.Entries {
		e.Bytes32([]byte(m.Entries[i].Key))
		e.Bytes32(m.Entries[i].Value)
	}
	e.Uint8(m.Code)
	e.Bytes32([]byte(m.Err))
	return finishFrame(e)
}

func decodeScanReply(payload []byte) (scanReplyMsg, error) {
	d := types.NewDecoder(payload)
	var m scanReplyMsg
	m.ID = d.Uint64()
	n := d.Uint32()
	if d.Err() != nil || n > MaxScanEntries {
		d.Fail(errors.New("clientapi: corrupt scan reply"))
		return m, d.Err()
	}
	m.Entries = make([]Entry, 0, n)
	for i := uint32(0); i < n && d.Err() == nil; i++ {
		m.Entries = append(m.Entries, Entry{
			Key:   string(d.Bytes32()),
			Value: append([]byte(nil), d.Bytes32()...),
		})
	}
	m.Code = d.Uint8()
	m.Err = string(d.Bytes32())
	return m, d.Finish()
}

type watchMsg struct {
	ID  uint64
	Key string
	At  ReadToken
}

func marshalWatch(m watchMsg) []byte {
	e := frame(kindWatch, 28+len(m.Key))
	e.Uint64(m.ID)
	e.Bytes32([]byte(m.Key))
	e.Uint32(m.At.Worker)
	e.Uint64(m.At.Round)
	return finishFrame(e)
}

func decodeWatch(payload []byte) (watchMsg, error) {
	d := types.NewDecoder(payload)
	m := watchMsg{ID: d.Uint64(), Key: string(d.Bytes32()), At: ReadToken{Worker: d.Uint32(), Round: d.Uint64()}}
	return m, d.Finish()
}

type watchEventMsg struct {
	ID  uint64
	Upd KeyUpdate
}

func marshalWatchEvent(m watchEventMsg) []byte {
	e := frame(kindWatchEvent, 32+len(m.Upd.Key)+len(m.Upd.Value))
	e.Uint64(m.ID)
	e.Bytes32([]byte(m.Upd.Key))
	e.Bool(m.Upd.Exists)
	e.Bytes32(m.Upd.Value)
	e.Uint32(m.Upd.Worker)
	e.Uint64(m.Upd.Round)
	return finishFrame(e)
}

func decodeWatchEvent(payload []byte) (watchEventMsg, error) {
	d := types.NewDecoder(payload)
	var m watchEventMsg
	m.ID = d.Uint64()
	m.Upd.Key = string(d.Bytes32())
	m.Upd.Exists = d.Bool()
	m.Upd.Value = append([]byte(nil), d.Bytes32()...)
	m.Upd.Worker = d.Uint32()
	m.Upd.Round = d.Uint64()
	return m, d.Finish()
}

type watchEndMsg struct {
	ID   uint64
	Code uint8
	Err  string
}

func marshalWatchEnd(m watchEndMsg) []byte {
	e := frame(kindWatchEnd, 16+len(m.Err))
	e.Uint64(m.ID)
	e.Uint8(m.Code)
	e.Bytes32([]byte(m.Err))
	return finishFrame(e)
}

func decodeWatchEnd(payload []byte) (watchEndMsg, error) {
	d := types.NewDecoder(payload)
	m := watchEndMsg{ID: d.Uint64(), Code: d.Uint8(), Err: string(d.Bytes32())}
	return m, d.Finish()
}

func marshalUnwatch(id uint64) []byte {
	e := frame(kindUnwatch, 8)
	e.Uint64(id)
	return finishFrame(e)
}

func decodeUnwatch(payload []byte) (uint64, error) {
	d := types.NewDecoder(payload)
	id := d.Uint64()
	return id, d.Finish()
}

// ---- shared session vocabulary ----

// Receipt is the proof of commitment a resolved write carries: the definite
// block of the merged order the transaction landed in, identified by worker,
// round, and the block's header hash. Any cluster member (or auditor holding
// the chain) can locate the write from it.
type Receipt struct {
	Worker    uint32
	Round     uint64
	BlockHash flcrypto.Hash
}

// Token derives the consistency token of this receipt: a read anchored to
// it observes the write the receipt certifies (and everything before it in
// the merged order).
func (r Receipt) Token() ReadToken { return ReadToken{Worker: r.Worker, Round: r.Round} }

// ReadToken anchors a state read to a position of the merged definite
// stream: the read blocks until the serving replica's applied frontier
// covers (Worker, Round), then observes that state or newer — which is what
// gives a client read-your-writes across any replica. The zero token reads
// whatever is current without waiting.
type ReadToken struct {
	Worker uint32
	Round  uint64
}

// Entry is one key/value pair of a range scan (ascending key order).
type Entry = statemachine.Entry

// KeyUpdate is one observed change of a watched key; Worker/Round is a
// consistency token for follow-up reads.
type KeyUpdate = statemachine.KeyUpdate

// ErrNoState reports a state read against a node that serves no queryable
// backend (flo.Config.State unset). Typed identically on the in-process and
// remote paths.
var ErrNoState = statemachine.ErrNoState

// Cursor addresses a position in the merged definite stream: the next block
// the subscriber wants is worker Worker's round Round. The merged order
// interleaves workers round-robin — round 1 of workers 0..ω−1, then round 2,
// and so on — so a cursor is totally ordered by (Round, Worker). The zero
// Cursor means "from genesis" (worker 0, round 1). After receiving a block,
// resume later with Cursor{w, r}.Next(ω) — exactly-once streaming across
// reconnects is the client pairing every block with the cursor just past it.
type Cursor struct {
	Worker uint32
	Round  uint64
}

// norm maps the zero value to the genesis cursor.
func (c Cursor) norm() Cursor {
	if c.Round == 0 {
		c.Round = 1
	}
	return c
}

// pos returns the cursor's 0-based index into the merged stream.
func (c Cursor) pos(workers int) uint64 {
	c = c.norm()
	return (c.Round-1)*uint64(workers) + uint64(c.Worker)
}

// Next returns the cursor immediately past this one in the merged order of a
// deployment with the given worker count: the resume point after receiving
// block (c.Worker, c.Round).
func (c Cursor) Next(workers int) Cursor {
	c = c.norm()
	if int(c.Worker)+1 < workers {
		return Cursor{Worker: c.Worker + 1, Round: c.Round}
	}
	return Cursor{Worker: 0, Round: c.Round + 1}
}

// Info describes the serving node: its identity, the cluster size, the
// worker count ω (which cursor arithmetic needs), the node's merged
// delivery totals, and its current submit backlog across all worker pools
// (a load signal clients can use to pick a less-busy node). Since 1.1.
type Info struct {
	Node            int64
	N               int
	Workers         int
	DeliveredBlocks uint64
	DeliveredTxs    uint64
	PoolPending     int
}

// BlockEvent is one element of a Blocks subscription: a definite block of
// the merged stream, or a terminal error (stream ends after an Err event).
type BlockEvent struct {
	Worker uint32
	Block  types.Block
	// Err, when non-nil, reports why the stream ended: the context was
	// canceled, the connection was lost, or the cursor predates retained
	// history. The channel is closed right after.
	Err error
}

// ErrCompacted reports a cursor below the retained history: the rounds were
// checkpointed away and survive only in a snapshot, so the stream cannot be
// served without a gap. Typed identically on the in-process and remote
// paths (the STREAM_END code preserves it across the wire).
var ErrCompacted = store.ErrCompacted

// errString renders an error for the wire ("" for nil).
func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
