package main

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	fireledger "repro"
)

// Output verification. Every run checks what the cluster served against what
// the load generator was told: the merged block stream is gap-free, every
// receipt names a streamed block that contains the write, nodes agree on
// block hashes, tokened reads return the written value, and after a crash no
// acked write is missing from the restarted node's stream.

type txKey struct{ client, seq uint64 }

// streamBlock is one block of a Blocks stream, reduced to what the checks
// compare.
type streamBlock struct {
	pos  uint64
	hash fireledger.Hash
	txs  []txKey
}

// position is a (worker, round) pair's index in the merged order.
func position(worker uint32, round uint64, workers int) uint64 {
	return (round-1)*uint64(workers) + uint64(worker)
}

func cursorAt(pos uint64, workers int) fireledger.Cursor {
	return fireledger.Cursor{Worker: uint32(pos % uint64(workers)), Round: pos/uint64(workers) + 1}
}

// errStreamCompacted marks a replay the node could not serve because
// checkpointing truncated that part of its log.
var errStreamCompacted = errors.New("range compacted away")

// streamRange reads merged positions from..to (inclusive) over a session of
// its own and checks they arrive gap-free. limit, when non-nil, supplies `to`
// once it is known (a live stream opened before the run ends); until then it
// holds ^0.
func streamRange(ctx context.Context, addr string, clientID uint64, workers int, from, to uint64, limit *atomic.Uint64) ([]streamBlock, error) {
	sess, err := fireledger.Dial(addr, clientID)
	if err != nil {
		return nil, fmt.Errorf("stream %s: %w", addr, err)
	}
	defer sess.Close()
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	events, err := sess.Blocks(ctx, cursorAt(from, workers))
	if err != nil {
		return nil, fmt.Errorf("stream %s: %w", addr, err)
	}
	var out []streamBlock
	next := from
	for ev := range events {
		if ev.Err != nil {
			if errors.Is(ev.Err, fireledger.ErrCompacted) {
				return out, fmt.Errorf("stream %s from position %d: %w (%v)", addr, from, errStreamCompacted, ev.Err)
			}
			if ctx.Err() != nil {
				break
			}
			return out, fmt.Errorf("stream %s at position %d: %w", addr, next, ev.Err)
		}
		hdr := ev.Block.Header()
		if pos := position(ev.Worker, hdr.Round, workers); pos != next {
			return out, fmt.Errorf("stream %s: gap: got position %d, want %d", addr, pos, next)
		}
		b := streamBlock{pos: next, hash: ev.Block.Hash(), txs: make([]txKey, len(ev.Block.Body.Txs))}
		for i := range ev.Block.Body.Txs {
			b.txs[i] = txKey{ev.Block.Body.Txs[i].Client, ev.Block.Body.Txs[i].Seq}
		}
		out = append(out, b)
		if limit != nil {
			to = limit.Load()
		}
		if next >= to {
			return out, nil
		}
		next++
	}
	return out, fmt.Errorf("stream %s ended at position %d, before %d: %w", addr, next, to, context.Cause(ctx))
}

// ledger indexes the load generator's writes for the stream checks.
type ledger struct {
	workers  int
	sessions []*loadSession
	byClient map[uint64]int
	seen     [][]bool // per session, per write: found in a checked stream
}

func newLedger(workers int, ss []*loadSession) *ledger {
	l := &ledger{workers: workers, sessions: ss, byClient: make(map[uint64]int), seen: make([][]bool, len(ss))}
	for i, s := range ss {
		l.byClient[s.clientID] = i
		l.seen[i] = make([]bool, len(s.writes))
	}
	return l
}

// find returns the session and index of the write with identity k; w is nil
// when it is not one of the load's writes (a probe, say).
func (l *ledger) find(k txKey) (sess, idx int, w *write) {
	sess, ok := l.byClient[k.client]
	if !ok {
		return 0, 0, nil
	}
	if idx = l.sessions[sess].find(k.seq); idx < 0 {
		return 0, 0, nil
	}
	return sess, idx, &l.sessions[sess].writes[idx]
}

// maxReceiptPos is the merged position of the last receipt of the run.
func (l *ledger) maxReceiptPos() (uint64, bool) {
	var top uint64
	found := false
	for _, s := range l.sessions {
		for i := range s.writes {
			if w := &s.writes[i]; w.done > 0 && !w.failed {
				if p := position(w.receipt.Worker, w.receipt.Round, l.workers); !found || p > top {
					top, found = p, true
				}
			}
		}
	}
	return top, found
}

// checkBlocks compares streamed blocks with the receipts: every receipt whose
// position lies in [blocks[0].pos, last] must name, by position and hash, a
// streamed block that contains the write, and no write may be streamed in
// two blocks: the ledger orders each write once. It returns the problems
// found (at most a few, each one line) and how many writes the stream
// carried more than once.
func (l *ledger) checkBlocks(source string, blocks []streamBlock) (problems []string, repeats int) {
	report := func(format string, args ...any) {
		if len(problems) < 5 {
			problems = append(problems, source+": "+fmt.Sprintf(format, args...))
		}
	}
	if len(blocks) == 0 {
		return nil, 0
	}
	for i := range l.seen {
		clear(l.seen[i])
	}
	lo, hi := blocks[0].pos, blocks[len(blocks)-1].pos
	carried := make([][]bool, len(l.seen)) // per session, per write: streamed at all
	for i := range carried {
		carried[i] = make([]bool, len(l.seen[i]))
	}
	for _, b := range blocks {
		for _, k := range b.txs {
			sess, idx, w := l.find(k)
			if w == nil {
				continue // a probe write, or a client that is not ours
			}
			if carried[sess][idx] {
				repeats++
				report("(client %d, seq %d) is streamed a second time at position %d", k.client, k.seq, b.pos)
			}
			carried[sess][idx] = true
			if w.done == 0 || w.failed {
				continue // committed, but its receipt never reached us: counted as failed already
			}
			if position(w.receipt.Worker, w.receipt.Round, l.workers) == b.pos && w.receipt.BlockHash == b.hash {
				l.seen[sess][idx] = true
			}
		}
	}
	for si, s := range l.sessions {
		for i := range s.writes {
			w := &s.writes[i]
			if w.done == 0 || w.failed || l.seen[si][i] {
				continue
			}
			if p := position(w.receipt.Worker, w.receipt.Round, l.workers); p >= lo && p <= hi {
				report("receipt of (client %d, seq %d) names position %d hash %v, but the block streamed there differs or lacks the write",
					s.clientID, w.seq, p, w.receipt.BlockHash)
			}
		}
	}
	return problems, repeats
}

// sameHashes reports positions at which two nodes' streams disagree.
func sameHashes(a, b []streamBlock) []string {
	byPos := make(map[uint64]fireledger.Hash, len(a))
	for _, blk := range a {
		byPos[blk.pos] = blk.hash
	}
	compared := 0
	for _, blk := range b {
		if h, ok := byPos[blk.pos]; ok {
			compared++
			if h != blk.hash {
				return []string{fmt.Sprintf("nodes 0 and 1 disagree at merged position %d: %v vs %v", blk.pos, h, blk.hash)}
			}
		}
	}
	if compared == 0 {
		return []string{"nodes 0 and 1 served no common merged position to compare"}
	}
	return nil
}

// verifyTimeout bounds each verification stream.
const verifyTimeout = 60 * time.Second
