package statemachine

import (
	"bytes"
	"maps"
	"runtime"
	"testing"

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

// hugeCountSnapshots are a KV snapshot (12 bytes) and a Replica snapshot
// (16 bytes) that each declare 2^20 entries and hold none.
func hugeCountSnapshots() (kv, replica []byte) {
	e := types.NewEncoder(12)
	e.Uint64(7)
	e.Uint32(1 << 20)
	r := types.NewEncoder(16)
	r.Uint32(0)
	r.Uint64(0)
	r.Uint32(1 << 20)
	return e.Bytes(), r.Bytes()
}

// TestSnapshotDecodersBoundCount: a snapshot that declares more entries
// than its bytes can hold is refused before anything is sized for them.
func TestSnapshotDecodersBoundCount(t *testing.T) {
	kv, replica := hugeCountSnapshots()
	var kerr, rerr error
	if n := allocated(func() { _, _, kerr = decodeSnapshot(kv) }); kerr == nil || n > 64<<10 {
		t.Fatalf("KV snapshot declaring 2^20 entries in %d bytes: err %v, allocated %d bytes", len(kv), kerr, n)
	}
	if n := allocated(func() { _, _, _, _, rerr = decodeReplicaSnapshot(replica) }); rerr == nil || n > 64<<10 {
		t.Fatalf("replica snapshot declaring 2^20 positions in %d bytes: err %v, allocated %d bytes", len(replica), rerr, n)
	}
}

// snapshotSeeds returns well-formed snapshots of both framings: an empty
// and a populated KV, and a replica over each.
func snapshotSeeds() [][]byte {
	kv := NewKV()
	r := NewReplicaWith(kv)
	empty := r.Snapshot()
	r.Deliver(deliverBlock(0, 1, types.Transaction{Client: 1, Seq: 1, Payload: EncodeSet("k", []byte("v"))}))
	r.Deliver(deliverBlock(2, 1, types.Transaction{Client: 2, Seq: 1, Payload: EncodeAdd("n", 3)}))
	r.Deliver(deliverBlock(1, 4, types.Transaction{Client: 3, Seq: 1, Payload: EncodeSet("", nil)}))
	hugeKV, hugeReplica := hugeCountSnapshots()
	return [][]byte{NewKV().Snapshot(), kv.Snapshot(), empty, r.Snapshot(), hugeKV, hugeReplica}
}

// FuzzDecodeSnapshot runs both snapshot decoders on every input: no panic,
// no allocation beyond a small multiple of the input, and on an accepted
// input decode(encode(decode(x))) = decode(x) — for the KV framing, and for
// the replica framing whenever its payload is a KV snapshot.
func FuzzDecodeSnapshot(f *testing.F) {
	for _, seed := range snapshotSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var (
			kvData   map[string][]byte
			applied  uint64
			kerr     error
			curW     uint32
			curRound uint64
			last     map[uint32]uint64
			rerr     error
		)
		n := allocated(func() {
			kvData, applied, kerr = decodeSnapshot(data)
			curW, curRound, last, _, rerr = decodeReplicaSnapshot(data)
		})
		if limit := uint64(16*len(data) + 64<<10); n > limit {
			t.Fatalf("%d-byte input allocated %d bytes (limit %d)", len(data), n, limit)
		}
		if kerr == nil {
			again, applied2, err := decodeSnapshot((&KV{data: kvData, applied: applied}).Snapshot())
			if err != nil || applied2 != applied || !maps.EqualFunc(again, kvData, bytes.Equal) {
				t.Fatalf("KV snapshot: decode(encode(decode(x))) = (%v, %d, %v), decode(x) = (%v, %d)", again, applied2, err, kvData, applied)
			}
		}
		if rerr != nil {
			return
		}
		r, err := RestoreReplicaInto(NewKV(), data)
		if err != nil {
			return // the payload is not a KV snapshot
		}
		snap := r.Snapshot()
		w2, round2, last2, _, err := decodeReplicaSnapshot(snap)
		if err != nil || w2 != curW || round2 != curRound || !maps.Equal(last2, last) {
			t.Fatalf("replica snapshot: re-encoded cursor (%d, %d) positions %v err %v, want (%d, %d) %v", w2, round2, last2, err, curW, curRound, last)
		}
		r2, err := RestoreReplicaInto(NewKV(), snap)
		if err != nil || !bytes.Equal(r2.Snapshot(), snap) {
			t.Fatalf("replica snapshot: the re-encoded snapshot does not restore to itself (err %v)", err)
		}
	})
}
