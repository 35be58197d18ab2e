package store

import (
	"path/filepath"
	"testing"

	"repro/internal/flcrypto"
	"repro/internal/types"
)

// Durable-append benchmarks: the cost of persisting one definite block
// with per-append fsync versus the group-commit mode that batches appends
// landing within a window into one buffered write and a single fsync.
//
// Run with: go test -run '^$' -bench BenchmarkBlockLogAppend -benchmem ./internal/store

func benchBlocks(b *testing.B, n, beta, sigma int) []types.Block {
	b.Helper()
	priv, err := flcrypto.GenerateKey(flcrypto.Ed25519, flcrypto.NewDeterministicReader("store-bench"))
	if err != nil {
		b.Fatal(err)
	}
	txs := make([]types.Transaction, beta)
	for i := range txs {
		txs[i] = types.Transaction{Client: uint64(i), Seq: uint64(i), Payload: make([]byte, sigma)}
	}
	blocks := make([]types.Block, n)
	prev := types.GenesisHeader(0).Hash()
	for r := 0; r < n; r++ {
		blk, err := types.NewBlock(0, uint64(r+1), 0, prev, txs, priv)
		if err != nil {
			b.Fatal(err)
		}
		blocks[r] = blk
		prev = blk.Hash()
	}
	return blocks
}

func benchAppend(b *testing.B, opts Options) {
	blocks := benchBlocks(b, b.N, 100, 512)
	log, _, err := Open(filepath.Join(b.TempDir(), "bench.log"), opts)
	if err != nil {
		b.Fatal(err)
	}
	defer log.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := log.Append(blocks[i]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBlockLogAppendNoSync is the page-cache-durability baseline.
func BenchmarkBlockLogAppendNoSync(b *testing.B) {
	benchAppend(b, Options{})
}

// BenchmarkBlockLogAppendSync is durable mode with one fsync per block (the
// pre-group-commit behavior of Options.Sync).
func BenchmarkBlockLogAppendSync(b *testing.B) {
	benchAppend(b, Options{Sync: true})
}

// BenchmarkBlockLogAppendGroupCommit is durable mode through the group
// committer, driven the way the round loop drives it: appends are enqueued
// in order without waiting (AppendAsync) and acks are collected at the end,
// so appends arriving during an fsync share the next one.
func BenchmarkBlockLogAppendGroupCommit(b *testing.B) {
	blocks := benchBlocks(b, b.N, 100, 512)
	benchGroupCommit(b, blocks)
}

func benchGroupCommit(b *testing.B, blocks []types.Block) {
	b.Helper()
	log, _, err := Open(filepath.Join(b.TempDir(), "bench.log"), Options{Sync: true, GroupCommit: true})
	if err != nil {
		b.Fatal(err)
	}
	defer log.Close()
	b.ReportAllocs()
	b.ResetTimer()
	waits := make([]func() error, b.N)
	for i := 0; i < b.N; i++ {
		w, err := log.AppendAsync(blocks[i])
		if err != nil {
			b.Fatal(err)
		}
		waits[i] = w
	}
	for i := 0; i < b.N; i++ {
		if err := waits[i](); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	stats := log.GroupCommitStats()
	if stats.Batches > 0 {
		b.ReportMetric(stats.Mean(), "frames/fsync")
	}
}

// The small-block pair isolates the fsync amortization (the write itself is
// negligible): this is the regime the paper's ω·small-β configurations and
// any metadata-heavy deployment live in.
func BenchmarkBlockLogAppendSyncSmall(b *testing.B) {
	blocks := benchBlocks(b, b.N, 1, 64)
	log, _, err := Open(filepath.Join(b.TempDir(), "bench.log"), Options{Sync: true})
	if err != nil {
		b.Fatal(err)
	}
	defer log.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := log.Append(blocks[i]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBlockLogAppendGroupCommitSmall(b *testing.B) {
	blocks := benchBlocks(b, b.N, 1, 64)
	benchGroupCommit(b, blocks)
}
