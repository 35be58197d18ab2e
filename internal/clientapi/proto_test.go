package clientapi

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/flcrypto"
	"repro/internal/types"
)

// allocated reports the bytes f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestReadFrameAllocatesAsBytesArrive: a peer that declares a MaxFrame frame
// and then goes silent must not cost the server MaxFrame of memory.
func TestReadFrameAllocatesAsBytesArrive(t *testing.T) {
	wire := make([]byte, 4+10)
	binary.BigEndian.PutUint32(wire, MaxFrame)
	var err error
	n := allocated(func() { _, _, err = readFrame(bytes.NewReader(wire)) })
	if err == nil {
		t.Fatal("a truncated frame read without error")
	}
	if n >= 4<<20 {
		t.Fatalf("reading 10 bytes of a declared %d-byte frame allocated %d bytes", MaxFrame, n)
	}
}

// TestReadFrameGrowsToDeclaredLength: a frame larger than the up-front
// allocation still reads whole and exact.
func TestReadFrameGrowsToDeclaredLength(t *testing.T) {
	payload := bytes.Repeat([]byte{7, 1, 9}, framePrealloc) // 3 MiB
	e := frame(kindSubmit, len(payload))
	e.Raw(payload)
	kind, got, err := readFrame(bytes.NewReader(finishFrame(e)))
	if err != nil || kind != kindSubmit || !bytes.Equal(got, payload) {
		t.Fatalf("kind %d, %d bytes, err %v; want kind %d, %d bytes", kind, len(got), err, kindSubmit, len(payload))
	}
}

// wireCodec is one frame kind's decoder and its inverse.
type wireCodec struct {
	decode  func(payload []byte) (any, error)
	marshal func(v any) []byte
}

type subscribeVal struct {
	Cursor Cursor
	Filter Filter
}

type streamEndVal struct{ err error }

// wireCodecs holds every frame kind that carries a payload.
var wireCodecs = map[uint8]wireCodec{
	kindHello: {
		func(p []byte) (any, error) { return decodeHello(p) },
		func(v any) []byte { return marshalHello(v.(helloMsg)) }},
	kindWelcome: {
		func(p []byte) (any, error) { return decodeWelcome(p) },
		func(v any) []byte { return marshalWelcome(v.(welcomeMsg)) }},
	kindSubmit: {
		func(p []byte) (any, error) { return decodeSubmit(p) },
		func(v any) []byte { return marshalSubmit(v.(submitMsg)) }},
	kindAck: {
		func(p []byte) (any, error) { return decodeAck(p) },
		func(v any) []byte { return marshalAck(v.(ackMsg)) }},
	kindCommit: {
		func(p []byte) (any, error) { return decodeCommit(p) },
		func(v any) []byte { return marshalCommit(v.(commitMsg)) }},
	kindSubscribe: {
		func(p []byte) (any, error) {
			c, f, err := decodeSubscribe(p)
			return subscribeVal{c, f}, err
		},
		func(v any) []byte { return marshalSubscribe(v.(subscribeVal).Cursor, v.(subscribeVal).Filter) }},
	kindBlock: {
		func(p []byte) (any, error) { return decodeBlockMsg(p) },
		func(v any) []byte { return marshalBlock(v.(blockMsg)) }},
	kindStreamEnd: {
		func(p []byte) (any, error) {
			end, err := decodeStreamEnd(p)
			return streamEndVal{end}, err
		},
		func(v any) []byte { return marshalStreamEnd(v.(streamEndVal).err) }},
	kindInfoReply: {
		func(p []byte) (any, error) { return decodeInfoReply(p) },
		func(v any) []byte { return marshalInfoReply(v.(Info)) }},
	kindGet: {
		func(p []byte) (any, error) { return decodeGet(p) },
		func(v any) []byte { return marshalGet(v.(getMsg)) }},
	kindGetReply: {
		func(p []byte) (any, error) { return decodeGetReply(p) },
		func(v any) []byte { return marshalGetReply(v.(getReplyMsg)) }},
	kindScan: {
		func(p []byte) (any, error) { return decodeScan(p) },
		func(v any) []byte { return marshalScan(v.(scanMsg)) }},
	kindScanReply: {
		func(p []byte) (any, error) { return decodeScanReply(p) },
		func(v any) []byte { return marshalScanReply(v.(scanReplyMsg)) }},
	kindWatch: {
		func(p []byte) (any, error) { return decodeWatch(p) },
		func(v any) []byte { return marshalWatch(v.(watchMsg)) }},
	kindWatchEvent: {
		func(p []byte) (any, error) { return decodeWatchEvent(p) },
		func(v any) []byte { return marshalWatchEvent(v.(watchEventMsg)) }},
	kindWatchEnd: {
		func(p []byte) (any, error) { return decodeWatchEnd(p) },
		func(v any) []byte { return marshalWatchEnd(v.(watchEndMsg)) }},
	kindUnwatch: {
		func(p []byte) (any, error) { return decodeUnwatch(p) },
		func(v any) []byte { return marshalUnwatch(v.(uint64)) }},
}

// sameDecoded compares two decoded values. Blocks are compared field by
// field (their encoding memos hold pointers), and a STREAM_END by what
// survives the wire: whether the stream ended, whether ErrCompacted, and the
// message (which re-encoding prefixes).
func sameDecoded(a, b any) bool {
	switch a := a.(type) {
	case blockMsg:
		b := b.(blockMsg)
		return a.Worker == b.Worker && a.Block.Signed.Header == b.Block.Signed.Header &&
			bytes.Equal(a.Block.Signed.Sig, b.Block.Signed.Sig) &&
			reflect.DeepEqual(a.Block.Body.Txs, b.Block.Body.Txs)
	case streamEndVal:
		b := b.(streamEndVal)
		if a.err == nil || b.err == nil {
			return a.err == nil && b.err == nil
		}
		return errors.Is(a.err, ErrCompacted) == errors.Is(b.err, ErrCompacted) &&
			strings.Contains(b.err.Error(), a.err.Error())
	}
	return reflect.DeepEqual(a, b)
}

// seedFrames returns one frame from every marshal function.
func seedFrames(t testing.TB) [][]byte {
	ks := flcrypto.MustGenerateKeySet(4, flcrypto.Ed25519)
	blk, err := types.NewBlock(1, 3, 2, flcrypto.Hash{9},
		[]types.Transaction{{Client: 5, Seq: 6, Payload: []byte("tx")}, {Client: 7, Seq: 8}}, ks.Privs[2])
	if err != nil {
		t.Fatal(err)
	}
	at := ReadToken{Worker: 1, Round: 4}
	return [][]byte{
		marshalHello(helloMsg{Magic: Magic, Version: Version, ClientID: 42}),
		marshalWelcome(welcomeMsg{Version: Version, Node: 1, N: 4, Workers: 2, Err: "no"}),
		marshalSubmit(submitMsg{Seq: 3, Payload: []byte("payload")}),
		marshalAck(ackMsg{Seq: 3, Err: "full"}),
		marshalCommit(commitMsg{Seq: 3, Receipt: Receipt{Worker: 1, Round: 9, BlockHash: flcrypto.Hash{1}}}),
		marshalSubscribe(Cursor{Worker: 1, Round: 2}, Filter{HasClient: true, Client: 5, TxPrefix: []byte("A")}),
		marshalBlock(blockMsg{Worker: 1, Block: blk}),
		marshalStreamEnd(nil),
		marshalStreamEnd(errors.New("read failed")),
		marshalStreamEnd(ErrCompacted),
		marshalEmpty(kindInfo),
		marshalEmpty(kindUnsubscribe),
		marshalInfoReply(Info{Node: 1, N: 4, Workers: 2, DeliveredBlocks: 10, DeliveredTxs: 20, PoolPending: 3}),
		marshalGet(getMsg{ID: 1, Key: "k", At: at}),
		marshalGetReply(getReplyMsg{ID: 1, Found: true, Value: []byte("v"), Code: readError, Err: "e"}),
		marshalScan(scanMsg{ID: 2, Begin: "a", End: "z", Max: 10, At: at}),
		marshalScanReply(scanReplyMsg{ID: 2, Entries: []Entry{{Key: "a", Value: []byte("1")}, {Key: "b"}}}),
		marshalWatch(watchMsg{ID: 3, Key: "k", At: at}),
		marshalWatchEvent(watchEventMsg{ID: 3, Upd: KeyUpdate{Key: "k", Exists: true, Value: []byte("v"), Worker: 1, Round: 5}}),
		marshalWatchEnd(watchEndMsg{ID: 3, Code: readNoState, Err: "none"}),
		marshalUnwatch(3),
	}
}

// FuzzClientFrame feeds arbitrary bytes through readFrame and the decoder of
// the frame's kind. No input may panic, allocate more than the input plus
// framePrealloc, or decode to a value that re-marshals into a different one.
func FuzzClientFrame(f *testing.F) {
	for _, seed := range seedFrames(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var (
			kind    uint8
			payload []byte
			v       any
			ferr    error
			derr    error
			codec   wireCodec
			known   bool
		)
		n := allocated(func() {
			kind, payload, ferr = readFrame(bytes.NewReader(data))
			if ferr != nil {
				return
			}
			if codec, known = wireCodecs[kind]; known {
				v, derr = codec.decode(payload)
			}
		})
		if limit := uint64(framePrealloc + 4*len(data) + 64<<10); n > limit {
			t.Fatalf("%d-byte input allocated %d bytes (limit %d)", len(data), n, limit)
		}
		if ferr != nil || !known || derr != nil {
			return
		}
		kind2, payload2, err := readFrame(bytes.NewReader(codec.marshal(v)))
		if err != nil || kind2 != kind {
			t.Fatalf("re-marshaled kind %d frame: kind %d, err %v", kind, kind2, err)
		}
		v2, err := codec.decode(payload2)
		if err != nil {
			t.Fatalf("re-marshaled kind %d frame does not decode: %v", kind, err)
		}
		if !sameDecoded(v, v2) {
			t.Fatalf("kind %d: decode(marshal(decode(x))) = %+v, decode(x) = %+v", kind, v2, v)
		}
	})
}
