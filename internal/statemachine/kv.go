// Package statemachine provides the deterministic replicated state machine
// that rides on FLO's total order: every replica applies the merged definite
// transaction stream to a pluggable state backend and, because application
// is a pure function of the stream, all replicas hold identical state at
// equal positions ("transactions may in fact be any deterministic
// computational step", paper §1). Two backends implement StateBackend: the
// in-memory map (KV) and the durable value-log store (Durable); both emit
// the same canonical snapshot bytes, which makes replica state portable — a
// digest for cross-replica comparison, a serialized form for state transfer
// and restart, interchangeable across backends.
package statemachine

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/flcrypto"
	"repro/internal/types"
)

// Op codes of the KV command language.
const (
	// OpSet assigns a value to a key.
	OpSet = 1
	// OpDel removes a key.
	OpDel = 2
	// OpAdd increments a key's value interpreted as a big-endian uint64
	// (missing keys count as 0) — enough for balances and counters.
	OpAdd = 3
	// OpTransfer moves an amount between two counter keys atomically,
	// rejecting deterministically when the source balance is short — the
	// overdraft check every replica agrees on.
	OpTransfer = 4
)

// Errors returned by Apply. An erroring transaction leaves the state
// unchanged but still advances the applied-count: replicas must agree on
// rejection exactly as they agree on application.
var (
	ErrBadOp = errors.New("statemachine: malformed operation")
	// ErrInsufficient rejects a TRANSFER whose source balance is below the
	// amount.
	ErrInsufficient = errors.New("statemachine: insufficient balance")
)

// EncodeSet builds a SET payload.
func EncodeSet(key string, value []byte) []byte {
	e := types.NewEncoder(16 + len(key) + len(value))
	e.Uint8(OpSet)
	e.Bytes32([]byte(key))
	e.Bytes32(value)
	return e.Bytes()
}

// EncodeDel builds a DEL payload.
func EncodeDel(key string) []byte {
	e := types.NewEncoder(8 + len(key))
	e.Uint8(OpDel)
	e.Bytes32([]byte(key))
	return e.Bytes()
}

// EncodeAdd builds an ADD payload (delta is two's-complement, so negative
// deltas subtract).
func EncodeAdd(key string, delta int64) []byte {
	e := types.NewEncoder(16 + len(key))
	e.Uint8(OpAdd)
	e.Bytes32([]byte(key))
	e.Int64(delta)
	return e.Bytes()
}

// EncodeTransfer builds a TRANSFER payload moving amount from one counter
// key to another.
func EncodeTransfer(from, to string, amount uint64) []byte {
	e := types.NewEncoder(24 + len(from) + len(to))
	e.Uint8(OpTransfer)
	e.Bytes32([]byte(from))
	e.Bytes32([]byte(to))
	e.Uint64(amount)
	return e.Bytes()
}

// TxKeys returns the keys a payload touches, in payload order. Malformed
// payloads return nil. The watch path uses it to decide which registered
// keys a block may have changed without re-running the ops.
func TxKeys(payload []byte) []string {
	d := types.NewDecoder(payload)
	switch d.Uint8() {
	case OpSet, OpDel, OpAdd:
		key := string(d.Bytes32())
		if d.Err() != nil {
			return nil
		}
		return []string{key}
	case OpTransfer:
		from := string(d.Bytes32())
		to := string(d.Bytes32())
		if d.Err() != nil {
			return nil
		}
		return []string{from, to}
	}
	return nil
}

// table is the primitive mutation surface applyOp drives; each backend
// supplies closures over its own storage so the op semantics live in
// exactly one place.
type table struct {
	get func(key string) ([]byte, bool)
	put func(key string, value []byte)
	del func(key string)
}

// applyOp interprets one payload against a table. It is the single
// definition of the command language: both backends (and therefore every
// replica) reject and apply identically.
func applyOp(payload []byte, t table) error {
	d := types.NewDecoder(payload)
	op := d.Uint8()
	switch op {
	case OpSet:
		key := string(d.Bytes32())
		value := append([]byte(nil), d.Bytes32()...)
		if d.Finish() != nil {
			return ErrBadOp
		}
		t.put(key, value)
	case OpDel:
		key := string(d.Bytes32())
		if d.Finish() != nil {
			return ErrBadOp
		}
		t.del(key)
	case OpAdd:
		key := string(d.Bytes32())
		delta := d.Int64()
		if d.Finish() != nil {
			return ErrBadOp
		}
		cur, err := counterAt(t, key)
		if err != nil {
			return err
		}
		t.put(key, beBytes(uint64(int64(cur)+delta)))
	case OpTransfer:
		from := string(d.Bytes32())
		to := string(d.Bytes32())
		amount := d.Uint64()
		if d.Finish() != nil {
			return ErrBadOp
		}
		fromV, err := counterAt(t, from)
		if err != nil {
			return err
		}
		toV, err := counterAt(t, to)
		if err != nil {
			return err
		}
		if fromV < amount {
			return fmt.Errorf("%w: %q has %d, needs %d", ErrInsufficient, from, fromV, amount)
		}
		if from == to {
			return nil // self-transfer: balance checked, state unchanged
		}
		t.put(from, beBytes(fromV-amount))
		t.put(to, beBytes(toV+amount))
	default:
		return fmt.Errorf("%w: op %d", ErrBadOp, op)
	}
	return nil
}

// counterAt reads key as a big-endian uint64 counter (0 when absent).
func counterAt(t table, key string) (uint64, error) {
	raw, ok := t.get(key)
	if !ok {
		return 0, nil
	}
	if len(raw) != 8 {
		return 0, fmt.Errorf("%w: counter op on non-counter key %q", ErrBadOp, key)
	}
	return beUint64(raw), nil
}

// KV is the default in-memory backend: a plain map plus the canonical
// snapshot serialization. All methods are safe for concurrent use; Apply
// calls must arrive in the replica's delivery order.
type KV struct {
	mu      sync.RWMutex
	data    map[string][]byte
	applied uint64 // count of Apply calls (including rejected ones)
}

var _ StateBackend = (*KV)(nil)

// NewKV returns an empty store.
func NewKV() *KV {
	return &KV{data: make(map[string][]byte)}
}

// Apply executes one transaction payload. Malformed payloads are rejected
// deterministically (same error at every replica) and counted.
func (kv *KV) Apply(tx types.Transaction) error {
	kv.mu.Lock()
	defer kv.mu.Unlock()
	return kv.applyLocked(tx)
}

func (kv *KV) applyLocked(tx types.Transaction) error {
	kv.applied++
	return applyOp(tx.Payload, table{
		get: func(k string) ([]byte, bool) { v, ok := kv.data[k]; return v, ok },
		put: func(k string, v []byte) { kv.data[k] = v },
		del: func(k string) { delete(kv.data, k) },
	})
}

// ApplyBatch applies one block's transactions in order.
func (kv *KV) ApplyBatch(txs []types.Transaction) {
	kv.mu.Lock()
	defer kv.mu.Unlock()
	for i := range txs {
		_ = kv.applyLocked(txs[i])
	}
}

func beUint64(b []byte) uint64 {
	var v uint64
	for _, c := range b {
		v = v<<8 | uint64(c)
	}
	return v
}

func beBytes(v uint64) []byte {
	out := make([]byte, 8)
	for i := 7; i >= 0; i-- {
		out[i] = byte(v)
		v >>= 8
	}
	return out
}

// Get returns the value of key.
func (kv *KV) Get(key string) ([]byte, bool) {
	kv.mu.RLock()
	defer kv.mu.RUnlock()
	v, ok := kv.data[key]
	if !ok {
		return nil, false
	}
	return append([]byte(nil), v...), true
}

// Scan returns up to max entries with begin <= key < end in ascending key
// order (empty end = unbounded, max <= 0 = uncapped).
func (kv *KV) Scan(begin, end string, max int) []Entry {
	kv.mu.RLock()
	defer kv.mu.RUnlock()
	keys := make([]string, 0, len(kv.data))
	for k := range kv.data {
		if k >= begin && (end == "" || k < end) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	if max > 0 && len(keys) > max {
		keys = keys[:max]
	}
	out := make([]Entry, len(keys))
	for i, k := range keys {
		out[i] = Entry{Key: k, Value: append([]byte(nil), kv.data[k]...)}
	}
	return out
}

// Counter returns key's value as a counter (0 when absent or malformed).
func (kv *KV) Counter(key string) int64 {
	v, ok := kv.Get(key)
	if !ok || len(v) != 8 {
		return 0
	}
	return int64(beUint64(v))
}

// Len returns the number of keys.
func (kv *KV) Len() int {
	kv.mu.RLock()
	defer kv.mu.RUnlock()
	return len(kv.data)
}

// Applied returns how many transactions have been applied (including
// rejected ones) — the replica's logical position.
func (kv *KV) Applied() uint64 {
	kv.mu.RLock()
	defer kv.mu.RUnlock()
	return kv.applied
}

// Hash returns a digest of the full state (keys, values, position). Two
// replicas that applied the same stream have equal hashes — the
// cross-replica consistency oracle used in tests and examples.
func (kv *KV) Hash() flcrypto.Hash {
	return flcrypto.Sum256(kv.Snapshot())
}

// Snapshot serializes the state deterministically (sorted keys).
func (kv *KV) Snapshot() []byte {
	kv.mu.RLock()
	defer kv.mu.RUnlock()
	keys := make([]string, 0, len(kv.data))
	for k := range kv.data {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	e := types.NewEncoder(64 * (len(keys) + 1))
	e.Uint64(kv.applied)
	e.Uint32(uint32(len(keys)))
	for _, k := range keys {
		e.Bytes32([]byte(k))
		e.Bytes32(kv.data[k])
	}
	return e.Bytes()
}

// Restore replaces the store's contents with a snapshot's.
func (kv *KV) Restore(snap []byte) error {
	data, applied, err := decodeSnapshot(snap)
	if err != nil {
		return err
	}
	kv.mu.Lock()
	kv.data, kv.applied = data, applied
	kv.mu.Unlock()
	return nil
}

// Close is a no-op for the in-memory backend.
func (kv *KV) Close() error { return nil }

// decodeSnapshot parses the canonical snapshot framing shared by every
// backend.
func decodeSnapshot(snap []byte) (map[string][]byte, uint64, error) {
	d := types.NewDecoder(snap)
	applied := d.Uint64()
	n := d.Uint32()
	// An entry takes at least 8 bytes (two length prefixes): a count the
	// rest of the input cannot hold is corrupt, and refusing it here keeps
	// a short snapshot from presizing a map for millions of entries.
	if d.Err() != nil || uint64(n)*8 > uint64(d.Len()) {
		return nil, 0, fmt.Errorf("statemachine: corrupt snapshot header")
	}
	data := make(map[string][]byte, n)
	for i := uint32(0); i < n; i++ {
		key := string(d.Bytes32())
		value := append([]byte(nil), d.Bytes32()...)
		if d.Err() != nil {
			break
		}
		data[key] = value
	}
	if err := d.Finish(); err != nil {
		return nil, 0, fmt.Errorf("statemachine: corrupt snapshot: %w", err)
	}
	return data, applied, nil
}

// Restore rebuilds an in-memory store from a snapshot.
func Restore(snap []byte) (*KV, error) {
	kv := NewKV()
	if err := kv.Restore(snap); err != nil {
		return nil, err
	}
	return kv, nil
}
