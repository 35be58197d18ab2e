package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"

	fireledger "repro"
	"repro/benchmark/wire"
	"repro/internal/clientapi"
	"repro/internal/flcrypto"
	"repro/internal/transport"
	"repro/internal/types"
)

// tracer holds a traced node's spans and boundary counters in memory until
// exit. Block events are keyed by (worker, round); a sampled write is keyed
// by (client, seq) and attached to the block whose Deliver callback finds it.
type tracer struct {
	sample uint64

	mu      sync.Mutex
	blocks  map[blockKey]*wire.BlockTrace
	order   []*wire.BlockTrace // delivered blocks, merged order
	submits map[txKey]int64    // sampled write → node Submit entry
	txs     []wire.TxTrace

	// applyStart is the entry time of the state backend's current
	// ApplyBatch: the merger applies a block and then calls Deliver on the
	// same goroutine, so Deliver reads it as that block's event E.
	applyStart atomic.Int64

	emptyBlocks atomic.Int64
	sendMsgs    atomic.Int64
	sendBytes   atomic.Int64
	sendNs      atomic.Int64
	submitCalls atomic.Int64
	submitNs    atomic.Int64
	tapBlocks   atomic.Int64
	tapNs       atomic.Int64
	applyBlocks atomic.Int64
	applyNs     atomic.Int64
	getCalls    atomic.Int64
	getNs       atomic.Int64
}

type blockKey struct {
	w uint32
	r uint64
}

type txKey struct{ client, seq uint64 }

func newTracer(sample uint64) *tracer {
	if sample == 0 {
		sample = 1
	}
	return &tracer{sample: sample, blocks: make(map[blockKey]*wire.BlockTrace), submits: make(map[txKey]int64)}
}

// blockLocked returns the record of (w, r), creating it; t.mu held.
func (t *tracer) blockLocked(w uint32, r uint64) *wire.BlockTrace {
	k := blockKey{w, r}
	b := t.blocks[k]
	if b == nil {
		b = &wire.BlockTrace{Worker: w, Round: r}
		t.blocks[k] = b
	}
	return b
}

// onEvent is Config.OnEvent: the first stamp of each Fig 9 event wins (a
// round re-proposed after recovery keeps its original proposal time).
func (t *tracer) onEvent(w uint32, round uint64, ev fireledger.Event) {
	now := time.Now().UnixNano()
	t.mu.Lock()
	b := t.blockLocked(w, round)
	var slot *int64
	switch ev {
	case fireledger.EventBlockProposed:
		slot = &b.A
	case fireledger.EventHeaderProposed:
		slot = &b.B
	case fireledger.EventTentative:
		slot = &b.C
	case fireledger.EventDefinite:
		slot = &b.D
	}
	if slot != nil && *slot == 0 {
		*slot = now
	}
	t.mu.Unlock()
}

// onDeliver is Config.Deliver: event E, and the point where sampled writes
// meet the block that carries them.
func (t *tracer) onDeliver(w uint32, blk types.Block) {
	now := time.Now().UnixNano()
	hdr := blk.Header()
	if len(blk.Body.Txs) == 0 {
		t.emptyBlocks.Add(1)
	}
	t.mu.Lock()
	b := t.blockLocked(w, hdr.Round)
	b.Deliver = now
	b.E = now
	if at := t.applyStart.Swap(0); at != 0 {
		b.E = at
	}
	t.order = append(t.order, b)
	for i := range blk.Body.Txs {
		tx := &blk.Body.Txs[i]
		k := txKey{tx.Client, tx.Seq}
		if at, ok := t.submits[k]; ok {
			delete(t.submits, k)
			t.txs = append(t.txs, wire.TxTrace{Client: tx.Client, Seq: tx.Seq, Submit: at, Worker: w, Round: hdr.Round})
		}
	}
	t.mu.Unlock()
}

func (t *tracer) addCounters(s wire.Stats) {
	s[wire.FloEmptyBlocks] = t.emptyBlocks.Load()
	s[wire.SendMsgs] = t.sendMsgs.Load()
	s[wire.SendBytes] = t.sendBytes.Load()
	s[wire.SendNs] = t.sendNs.Load()
	s[wire.SubmitCalls] = t.submitCalls.Load()
	s[wire.SubmitNs] = t.submitNs.Load()
	s[wire.TapBlocks] = t.tapBlocks.Load()
	s[wire.TapNs] = t.tapNs.Load()
	s[wire.ApplyBlocks] = t.applyBlocks.Load()
	s[wire.ApplyNs] = t.applyNs.Load()
	s[wire.GetCalls] = t.getCalls.Load()
	s[wire.GetNs] = t.getNs.Load()
}

// writeFile dumps the delivered blocks and the sampled writes as JSON lines.
func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, b := range t.order {
		if err := enc.Encode(wire.TraceLine{Block: b}); err != nil {
			return err
		}
	}
	for i := range t.txs {
		if err := enc.Encode(wire.TraceLine{Tx: &t.txs[i]}); err != nil {
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// tracedEndpoint counts and times what the node hands to the transport. A
// broadcast counts one message per destination, self included, as Endpoint
// documents it.
type tracedEndpoint struct {
	transport.Endpoint
	tr *tracer
}

func (e *tracedEndpoint) Send(to flcrypto.NodeID, payload []byte) error {
	start := time.Now()
	err := e.Endpoint.Send(to, payload)
	e.tr.sendNs.Add(int64(time.Since(start)))
	e.tr.sendMsgs.Add(1)
	e.tr.sendBytes.Add(int64(len(payload)))
	return err
}

func (e *tracedEndpoint) Broadcast(payload []byte) error {
	start := time.Now()
	err := e.Endpoint.Broadcast(payload)
	e.tr.sendNs.Add(int64(time.Since(start)))
	n := int64(e.Endpoint.N())
	e.tr.sendMsgs.Add(n)
	e.tr.sendBytes.Add(n * int64(len(payload)))
	return err
}

// tracedState times the state backend's apply and read calls.
type tracedState struct {
	fireledger.StateBackend
	tr *tracer
}

func (s *tracedState) Apply(tx fireledger.Transaction) error {
	start := time.Now()
	err := s.StateBackend.Apply(tx)
	s.tr.applyNs.Add(int64(time.Since(start)))
	return err
}

func (s *tracedState) ApplyBatch(txs []fireledger.Transaction) {
	start := time.Now()
	s.tr.applyStart.Store(start.UnixNano())
	s.StateBackend.ApplyBatch(txs)
	s.tr.applyNs.Add(int64(time.Since(start)))
	s.tr.applyBlocks.Add(1)
}

func (s *tracedState) Get(key string) ([]byte, bool) {
	start := time.Now()
	v, ok := s.StateBackend.Get(key)
	s.tr.getNs.Add(int64(time.Since(start)))
	s.tr.getCalls.Add(1)
	return v, ok
}

// tracedNode is the clientapi.Node the server is given: it times the
// server's Submit calls, stamps sampled writes on entry, and times how long
// the server's delivery taps hold the merger goroutine.
type tracedNode struct {
	clientapi.Node
	tr *tracer
}

func (n *tracedNode) Submit(tx types.Transaction) error {
	start := time.Now()
	if tx.Seq%n.tr.sample == 0 {
		n.tr.mu.Lock()
		n.tr.submits[txKey{tx.Client, tx.Seq}] = start.UnixNano()
		n.tr.mu.Unlock()
	}
	err := n.Node.Submit(tx)
	n.tr.submitNs.Add(int64(time.Since(start)))
	n.tr.submitCalls.Add(1)
	return err
}

func (n *tracedNode) SubscribeDeliver(fn func(uint32, types.Block)) func() {
	return n.Node.SubscribeDeliver(func(w uint32, blk types.Block) {
		start := time.Now()
		fn(w, blk)
		end := time.Now()
		n.tr.tapNs.Add(int64(end.Sub(start)))
		n.tr.mu.Lock()
		b := n.tr.blockLocked(w, blk.Header().Round)
		if b.TapDone == 0 {
			n.tr.tapBlocks.Add(1) // several taps per block, counted once
		}
		b.TapDone = end.UnixNano()
		n.tr.mu.Unlock()
	})
}
