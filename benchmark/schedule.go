package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"time"

	fireledger "repro"
)

// Everything a run feeds the cluster derives from -seed through here: the
// payload bytes, the KV key order and the Poisson arrival times. The node
// processes receive only these generated inputs.

// sessionSeed separates the two sessions' streams of one run seed.
func sessionSeed(seed int64, session int) int64 {
	return seed*1000003 + int64(session)*7919 + 1
}

// poissonSchedule returns the due offsets of an open-loop session: arrivals
// of a Poisson process of the given rate over [0, span).
func poissonSchedule(seed int64, rate float64, span time.Duration) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	due := make([]time.Duration, 0, int(rate*span.Seconds()*1.1)+16)
	at := 0.0
	for {
		at += rng.ExpFloat64() / rate
		d := time.Duration(at * float64(time.Second))
		if d >= span {
			return due
		}
		due = append(due, d)
	}
}

// payloadPool is the size of a session's pre-generated random payload ring.
// Writes differ by (client, seq) regardless, so the ring only has to be
// large enough that no block carries a payload twice.
const payloadPool = 4096

// payloads yields a session's write payloads in submission order.
type payloads struct {
	ring [][]byte // random σ-byte payloads (non-KV workloads)

	// KV workloads: write i sets keys[order[i % len]] to a value that starts
	// with i, so every write of a key is distinguishable from the last.
	session int
	order   []int32
	filler  []byte
}

func newPayloads(seed int64, session, kvKeys int) *payloads {
	rng := rand.New(rand.NewSource(seed))
	p := &payloads{session: session}
	if kvKeys == 0 {
		p.ring = make([][]byte, payloadPool)
		for i := range p.ring {
			p.ring[i] = make([]byte, payloadSize)
			rng.Read(p.ring[i])
		}
		return p
	}
	// A seeded permutation, cycled: the writes of one key are i, i+kvKeys,
	// i+2·kvKeys, …, which is how a read's value is traced to the write that
	// set it (pass.checkReads).
	p.order = make([]int32, kvKeys)
	for i, k := range rng.Perm(kvKeys) {
		p.order[i] = int32(k)
	}
	p.filler = make([]byte, payloadSize)
	rng.Read(p.filler)
	return p
}

// kvKey names key k of a session; the sessions' key spaces are disjoint.
func kvKey(session int, k int32) string { return fmt.Sprintf("s%d/%08d", session, k) }

// next returns write i's payload, and for KV workloads the key and value it
// sets. The payload is always payloadSize bytes.
func (p *payloads) next(i int) (payload []byte, key string, value []byte) {
	if p.ring != nil {
		return p.ring[i%len(p.ring)], "", nil
	}
	key = kvKey(p.session, p.order[i%len(p.order)])
	// EncodeSet frames op(1) + len(4)+key + len(4)+value.
	value = make([]byte, payloadSize-9-len(key))
	binary.BigEndian.PutUint64(value, uint64(i))
	copy(value[8:], p.filler)
	return fireledger.EncodeSet(key, value), key, value
}
