package types

import (
	"testing"

	"repro/internal/flcrypto"
)

// Hot-path micro-benchmarks (CI runs them at one iteration as a canary).
// They measure the per-call cost of the operations the consensus and
// data paths repeat most: hashing a header, marshaling a body, encoding a
// full block, and hashing a transaction. Before the encode-once/hash-once
// refactor every call re-encoded and re-hashed from scratch; after it, the
// canonical bytes and digests of decoded or freshly built values are
// computed once and shared.
//
// Run with: go test -run '^$' -bench 'BenchmarkHeaderHash|BenchmarkBodyMarshal|BenchmarkBlockEncode|BenchmarkTxID' -benchmem ./internal/types

func benchBlock(b *testing.B, txs, txSize int) Block {
	b.Helper()
	priv, err := flcrypto.GenerateKey(flcrypto.Ed25519, flcrypto.NewDeterministicReader("hotpath-bench"))
	if err != nil {
		b.Fatal(err)
	}
	batch := make([]Transaction, txs)
	for i := range batch {
		batch[i] = Transaction{Client: uint64(i), Seq: uint64(i), Payload: make([]byte, txSize)}
	}
	blk, err := NewBlock(0, 1, 0, flcrypto.Hash{}, batch, priv)
	if err != nil {
		b.Fatal(err)
	}
	return blk
}

// BenchmarkHeaderHash measures repeated header hashing the way the chain,
// store replay, and equivocation checks perform it: the same signed header
// hashed over and over.
func BenchmarkHeaderHash(b *testing.B) {
	blk := benchBlock(b, 1, 64)
	b.ReportAllocs()
	b.ResetTimer()
	var h flcrypto.Hash
	for i := 0; i < b.N; i++ {
		h = blk.Hash()
	}
	_ = h
}

// BenchmarkHeaderHashFresh measures hashing a header that was never decoded
// or signed through the memoizing constructors — the literal-construction
// fallback path (pooled scratch, no memo).
func BenchmarkHeaderHashFresh(b *testing.B) {
	hdr := BlockHeader{Instance: 1, Round: 42, Proposer: 2, TxCount: 100}
	b.ReportAllocs()
	b.ResetTimer()
	var h flcrypto.Hash
	for i := 0; i < b.N; i++ {
		h = hdr.Hash()
	}
	_ = h
}

// BenchmarkBodyMarshal measures repeated body marshaling the way the data
// path consumes it: broadcast framing, body-hash checks, store appends, and
// range-sync all re-encode the same body.
func BenchmarkBodyMarshal(b *testing.B) {
	for _, cfg := range []struct {
		name   string
		txs    int
		txSize int
	}{
		{"beta100/sigma512", 100, 512},
		{"beta1000/sigma512", 1000, 512},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			blk := benchBlock(b, cfg.txs, cfg.txSize)
			b.SetBytes(int64(blk.Body.Size()))
			b.ReportAllocs()
			b.ResetTimer()
			var n int
			for i := 0; i < b.N; i++ {
				n = len(blk.Body.Marshal())
			}
			_ = n
		})
	}
}

// BenchmarkBodyHash measures repeated body hashing (CheckBody on every
// arriving copy of a block).
func BenchmarkBodyHash(b *testing.B) {
	blk := benchBlock(b, 100, 512)
	b.ReportAllocs()
	b.ResetTimer()
	var h flcrypto.Hash
	for i := 0; i < b.N; i++ {
		h = blk.Body.Hash()
	}
	_ = h
}

// BenchmarkBlockEncode measures encoding a full block into a caller-owned
// encoder — the store-append and range-sync serve path.
func BenchmarkBlockEncode(b *testing.B) {
	blk := benchBlock(b, 100, 512)
	size := 256 + blk.Body.Size()
	b.SetBytes(int64(size))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := NewEncoder(size)
		blk.Encode(e)
		if len(e.Bytes()) == 0 {
			b.Fatal("empty encoding")
		}
	}
}

// BenchmarkTxID measures transaction content hashing (client dedup paths).
func BenchmarkTxID(b *testing.B) {
	tx := Transaction{Client: 7, Seq: 9, Payload: make([]byte, 512)}
	b.ReportAllocs()
	b.ResetTimer()
	var h flcrypto.Hash
	for i := 0; i < b.N; i++ {
		h = tx.ID()
	}
	_ = h
}

// BenchmarkDecodeBlock measures the decode path (arrival of a block on the
// range-sync or store-replay path), including whatever the decoder retains
// for later re-encoding.
func BenchmarkDecodeBlock(b *testing.B) {
	blk := benchBlock(b, 100, 512)
	e := NewEncoder(256 + blk.Body.Size())
	blk.Encode(e)
	wire := e.Bytes()
	b.SetBytes(int64(len(wire)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := NewDecoder(wire)
		got := DecodeBlock(d)
		if d.Finish() != nil || got.Signed.Header.Round != 1 {
			b.Fatal("bad decode")
		}
	}
}
