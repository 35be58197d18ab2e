package main

import (
	"bytes"
	"reflect"
	"testing"
	"time"
)

func TestPoissonScheduleIsSeeded(t *testing.T) {
	span := 20 * time.Second
	a := poissonSchedule(42, 1000, span)
	b := poissonSchedule(42, 1000, span)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed, different schedules")
	}
	if c := poissonSchedule(43, 1000, span); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds, same schedule")
	}
	// 20000 expected arrivals; five standard deviations is about 700.
	if n := len(a); n < 19300 || n > 20700 {
		t.Errorf("%d arrivals at 1000/s over 20s", n)
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] {
			t.Fatalf("arrival %d goes back in time", i)
		}
	}
	if last := a[len(a)-1]; last >= span {
		t.Errorf("arrival at %v is outside the span", last)
	}
}

func TestSessionSeedsDiffer(t *testing.T) {
	if sessionSeed(7, 0) == sessionSeed(7, 1) || sessionSeed(7, 0) == sessionSeed(8, 0) {
		t.Error("session seeds collide")
	}
}

func TestRandomPayloadsAreSeeded(t *testing.T) {
	a, b := newPayloads(5, 0, 0), newPayloads(5, 0, 0)
	other := newPayloads(6, 0, 0)
	for _, i := range []int{0, 1, payloadPool - 1, payloadPool, 3*payloadPool + 17} {
		pa, key, value := a.next(i)
		pb, _, _ := b.next(i)
		if len(pa) != payloadSize || key != "" || value != nil {
			t.Fatalf("write %d: %d bytes, key %q", i, len(pa), key)
		}
		if !bytes.Equal(pa, pb) {
			t.Fatalf("write %d differs between two generators of one seed", i)
		}
		if po, _, _ := other.next(i); bytes.Equal(pa, po) {
			t.Fatalf("write %d is the same under another seed", i)
		}
	}
}

func TestKVPayloads(t *testing.T) {
	const keys = 50
	g := newPayloads(9, 1, keys)
	seen := make(map[string]bool)
	for i := 0; i < keys; i++ {
		payload, key, value := g.next(i)
		if len(payload) != payloadSize {
			t.Fatalf("write %d: payload of %d bytes, want %d", i, len(payload), payloadSize)
		}
		if seen[key] {
			t.Fatalf("key %s written twice within one pass over the key space", key)
		}
		seen[key] = true
		if !bytes.HasPrefix([]byte(key), []byte("s1/")) {
			t.Fatalf("key %s is outside session 1's key space", key)
		}
		if !bytes.Contains(payload, value) || !bytes.Contains(payload, []byte(key)) {
			t.Fatalf("write %d: payload does not carry its key and value", i)
		}
	}
	// The second pass rewrites the same keys in the same order with new values.
	_, key0, v0 := g.next(0)
	_, key1, v1 := g.next(keys)
	if key0 != key1 || bytes.Equal(v0, v1) {
		t.Errorf("second pass: key %s → %s, values equal: %v", key0, key1, bytes.Equal(v0, v1))
	}
	// A value names the write that set it; altered bytes name none.
	if idx, ok := valueIndex(v1, v0); !ok || idx != keys {
		t.Errorf("valueIndex of write %d's value = %d, %v", keys, idx, ok)
	}
	bad := append([]byte(nil), v0...)
	bad[len(bad)-1] ^= 1
	if _, ok := valueIndex(bad, v0); ok {
		t.Error("altered bytes pass for a value of the session")
	}
	if _, ok := valueIndex(nil, v0); ok {
		t.Error("an empty value passes for a value of the session")
	}
	if _, k, _ := newPayloads(9, 0, keys).next(0); k == key0 {
		t.Errorf("sessions 0 and 1 share key %s", k)
	}
}
