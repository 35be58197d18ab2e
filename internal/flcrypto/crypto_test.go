package flcrypto

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"
)

func TestSignVerifyEd25519(t *testing.T) {
	testSignVerify(t, Ed25519)
}

func TestSignVerifyECDSA(t *testing.T) {
	testSignVerify(t, ECDSAP256)
}

func testSignVerify(t *testing.T, scheme Scheme) {
	t.Helper()
	priv, err := GenerateKey(scheme, nil)
	if err != nil {
		t.Fatalf("GenerateKey: %v", err)
	}
	msg := []byte("fireledger block header")
	sig, err := priv.Sign(msg)
	if err != nil {
		t.Fatalf("Sign: %v", err)
	}
	if !priv.Public().Verify(msg, sig) {
		t.Fatal("signature did not verify")
	}
	if priv.Public().Verify([]byte("tampered"), sig) {
		t.Fatal("signature verified against a different message")
	}
	// A flipped signature byte must not verify.
	bad := append(Signature(nil), sig...)
	bad[0] ^= 0xff
	if priv.Public().Verify(msg, bad) {
		t.Fatal("corrupted signature verified")
	}
}

func TestPublicKeyRoundTrip(t *testing.T) {
	for _, scheme := range []Scheme{Ed25519, ECDSAP256} {
		priv, err := GenerateKey(scheme, nil)
		if err != nil {
			t.Fatalf("%v: GenerateKey: %v", scheme, err)
		}
		b := priv.Public().Bytes()
		pub, err := ParsePublicKey(scheme, b)
		if err != nil {
			t.Fatalf("%v: ParsePublicKey: %v", scheme, err)
		}
		msg := []byte("round trip")
		sig, err := priv.Sign(msg)
		if err != nil {
			t.Fatalf("%v: Sign: %v", scheme, err)
		}
		if !pub.Verify(msg, sig) {
			t.Fatalf("%v: parsed key failed to verify", scheme)
		}
		if !bytes.Equal(pub.Bytes(), b) {
			t.Fatalf("%v: Bytes not stable across parse", scheme)
		}
	}
}

func TestParsePublicKeyRejectsGarbage(t *testing.T) {
	if _, err := ParsePublicKey(Ed25519, []byte{1, 2, 3}); err == nil {
		t.Fatal("short ed25519 key accepted")
	}
	if _, err := ParsePublicKey(ECDSAP256, []byte{1, 2, 3}); err == nil {
		t.Fatal("short ecdsa key accepted")
	}
	if _, err := ParsePublicKey(Scheme(99), nil); err == nil {
		t.Fatal("unknown scheme accepted")
	}
}

func TestHasherMatchesSum256(t *testing.T) {
	data := []byte("some block payload")
	h := NewHasher()
	h.Write(data)
	if got, want := h.Sum(), Sum256(data); got != want {
		t.Fatalf("Hasher.Sum = %v, Sum256 = %v", got, want)
	}
}

func TestHasherUint64Ordering(t *testing.T) {
	// Writing (1,2) and (2,1) must hash differently: the codec depends on it.
	a := NewHasher()
	a.WriteUint64(1)
	a.WriteUint64(2)
	b := NewHasher()
	b.WriteUint64(2)
	b.WriteUint64(1)
	if a.Sum() == b.Sum() {
		t.Fatal("uint64 write order did not affect digest")
	}
}

func TestRegistryVerify(t *testing.T) {
	ks := MustGenerateKeySet(4, Ed25519)
	msg := []byte("hello")
	sig, err := ks.Privs[2].Sign(msg)
	if err != nil {
		t.Fatalf("Sign: %v", err)
	}
	if !ks.Registry.Verify(2, msg, sig) {
		t.Fatal("registry rejected valid signature")
	}
	if ks.Registry.Verify(1, msg, sig) {
		t.Fatal("registry accepted signature under wrong identity")
	}
	if ks.Registry.Verify(77, msg, sig) {
		t.Fatal("registry accepted signature from unknown node")
	}
}

func TestRegistryF(t *testing.T) {
	cases := []struct{ n, f int }{{4, 1}, {7, 2}, {10, 3}, {100, 33}, {1, 0}}
	for _, c := range cases {
		if got := NewRegistry(c.n).F(); got != c.f {
			t.Errorf("F(n=%d) = %d, want %d", c.n, got, c.f)
		}
	}
}

func TestGenerateKeySetValidation(t *testing.T) {
	if _, err := GenerateKeySet(0, Ed25519, nil); err == nil {
		t.Fatal("zero-sized key set accepted")
	}
}

func TestPermutationDeterministic(t *testing.T) {
	seed := Sum256([]byte("block 42"))
	p1 := Permutation(seed, 7, 10)
	p2 := Permutation(seed, 7, 10)
	if len(p1) != 10 {
		t.Fatalf("permutation length %d", len(p1))
	}
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatal("same seed produced different permutations")
		}
	}
	// A different epoch must (overwhelmingly likely) differ.
	p3 := Permutation(seed, 8, 10)
	same := true
	for i := range p1 {
		if p1[i] != p3[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different epochs produced identical permutations")
	}
}

func TestPermutationIsPermutation(t *testing.T) {
	f := func(seedBytes []byte, epoch uint64) bool {
		const n = 10
		perm := Permutation(Sum256(seedBytes), epoch, n)
		seen := make(map[NodeID]bool, n)
		for _, id := range perm {
			if id < 0 || id >= n || seen[id] {
				return false
			}
			seen[id] = true
		}
		return len(seen) == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSignaturePropertyQuick(t *testing.T) {
	priv, err := GenerateKey(Ed25519, nil)
	if err != nil {
		t.Fatal(err)
	}
	pub := priv.Public()
	f := func(msg []byte) bool {
		sig, err := priv.Sign(msg)
		return err == nil && pub.Verify(msg, sig)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestVerifyBatchMixedSchemes pins VerifyBatch's contract: Ed25519 and ECDSA
// keys side by side, a forgery among them, and every verdict equal to
// pub.Verify's.
func TestVerifyBatchMixedSchemes(t *testing.T) {
	const n = 6
	pubs := make([]PublicKey, n)
	msgs := make([][]byte, n)
	sigs := make([]Signature, n)
	for i := range pubs {
		scheme := Ed25519
		if i == 1 || i == 4 {
			scheme = ECDSAP256
		}
		priv, err := GenerateKey(scheme, nil)
		if err != nil {
			t.Fatal(err)
		}
		pubs[i] = priv.Public()
		msgs[i] = []byte(fmt.Sprintf("mixed envelope %d", i))
		if sigs[i], err = priv.Sign(msgs[i]); err != nil {
			t.Fatal(err)
		}
	}
	// One forgery of each scheme.
	for _, i := range []int{2, 4} {
		sigs[i] = append(Signature(nil), sigs[i]...)
		sigs[i][5] ^= 0xff
	}
	got := VerifyBatch(pubs, msgs, sigs)
	for i := range pubs {
		if want := pubs[i].Verify(msgs[i], sigs[i]); got[i] != want {
			t.Fatalf("item %d: batch=%v single=%v", i, got[i], want)
		}
		if forged := i == 2 || i == 4; got[i] == forged {
			t.Fatalf("item %d: verdict %v, forged %v", i, got[i], forged)
		}
	}
}

func BenchmarkSignEd25519(b *testing.B) {
	benchSign(b, Ed25519)
}

func BenchmarkSignECDSA(b *testing.B) {
	benchSign(b, ECDSAP256)
}

func benchSign(b *testing.B, scheme Scheme) {
	priv, err := GenerateKey(scheme, nil)
	if err != nil {
		b.Fatal(err)
	}
	msg := make([]byte, 512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := priv.Sign(msg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVerifyEd25519(b *testing.B) {
	priv, err := GenerateKey(Ed25519, nil)
	if err != nil {
		b.Fatal(err)
	}
	msg := make([]byte, 512)
	sig, _ := priv.Sign(msg)
	pub := priv.Public()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !pub.Verify(msg, sig) {
			b.Fatal("verify failed")
		}
	}
}
