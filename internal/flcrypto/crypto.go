// Package flcrypto provides the cryptographic substrate for FireLedger:
// digital signatures, hashing, and a key registry standing in for the PKI
// that permissioned blockchains assume (paper §3.1).
//
// The paper uses ECDSA over secp256k1. The Go standard library does not ship
// secp256k1, so the default scheme here is Ed25519 and an ECDSA P-256 scheme
// is provided as an option. Both preserve the property the evaluation relies
// on (Fig 5): signing cost = constant per operation + linear hashing of the
// signed payload.
package flcrypto

import (
	"crypto/ecdsa"
	"crypto/ed25519"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Hash is a SHA-256 digest. It is the authentication primitive that links
// blocks to their predecessors.
type Hash [32]byte

// ZeroHash is the hash value used for the genesis block's predecessor.
var ZeroHash Hash

// String renders the first 8 bytes of the hash in hex, enough to be
// unambiguous in logs without flooding them.
func (h Hash) String() string { return fmt.Sprintf("%x", h[:8]) }

// IsZero reports whether h is the all-zero hash.
func (h Hash) IsZero() bool { return h == ZeroHash }

// Sum256 hashes data with SHA-256.
func Sum256(data []byte) Hash { return sha256.Sum256(data) }

// Hasher accumulates data incrementally before producing a Hash.
// It wraps sha256 so callers never juggle raw hash.Hash values.
type Hasher struct {
	inner interface {
		io.Writer
		Sum([]byte) []byte
	}
}

// NewHasher returns a Hasher ready for writes.
func NewHasher() *Hasher {
	return &Hasher{inner: sha256.New()}
}

// Write feeds data into the hasher.
func (h *Hasher) Write(p []byte) { h.inner.Write(p) }

// WriteUint64 feeds a big-endian uint64 into the hasher.
func (h *Hasher) WriteUint64(v uint64) {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	h.inner.Write(b[:])
}

// Sum finalizes and returns the digest.
func (h *Hasher) Sum() Hash {
	var out Hash
	copy(out[:], h.inner.Sum(nil))
	return out
}

// Scheme selects a signature algorithm.
type Scheme int

const (
	// Ed25519 is the default scheme.
	Ed25519 Scheme = iota
	// ECDSAP256 matches the asymmetric-curve signatures of the paper more
	// closely (the paper uses secp256k1, which is not in the stdlib).
	ECDSAP256
)

// String implements fmt.Stringer.
func (s Scheme) String() string {
	switch s {
	case Ed25519:
		return "ed25519"
	case ECDSAP256:
		return "ecdsa-p256"
	default:
		return fmt.Sprintf("scheme(%d)", int(s))
	}
}

// Signature is an opaque signature blob.
type Signature []byte

// PublicKey verifies signatures produced by the matching PrivateKey.
type PublicKey interface {
	// Verify reports whether sig is a valid signature on msg.
	Verify(msg []byte, sig Signature) bool
	// Bytes returns a stable serialization of the key.
	Bytes() []byte
	// Scheme identifies the algorithm.
	Scheme() Scheme
}

// PrivateKey signs messages.
type PrivateKey interface {
	// Sign produces a signature on msg.
	Sign(msg []byte) (Signature, error)
	// Public returns the corresponding verification key.
	Public() PublicKey
	// Scheme identifies the algorithm.
	Scheme() Scheme
}

// GenerateKey creates a fresh key pair for the given scheme using rnd
// (crypto/rand.Reader if nil).
func GenerateKey(scheme Scheme, rnd io.Reader) (PrivateKey, error) {
	if rnd == nil {
		rnd = rand.Reader
	}
	switch scheme {
	case Ed25519:
		_, priv, err := ed25519.GenerateKey(rnd)
		if err != nil {
			return nil, fmt.Errorf("flcrypto: generate ed25519 key: %w", err)
		}
		return ed25519Priv{priv}, nil
	case ECDSAP256:
		priv, err := ecdsa.GenerateKey(elliptic.P256(), rnd)
		if err != nil {
			return nil, fmt.Errorf("flcrypto: generate ecdsa key: %w", err)
		}
		return &ecdsaPriv{priv}, nil
	default:
		return nil, fmt.Errorf("flcrypto: unknown scheme %v", scheme)
	}
}

type ed25519Priv struct{ k ed25519.PrivateKey }

func (p ed25519Priv) Sign(msg []byte) (Signature, error) {
	return Signature(ed25519.Sign(p.k, msg)), nil
}
func (p ed25519Priv) Public() PublicKey {
	return &ed25519Pub{k: p.k.Public().(ed25519.PublicKey)}
}
func (p ed25519Priv) Scheme() Scheme { return Ed25519 }

type ed25519Pub struct{ k ed25519.PublicKey }

func (p *ed25519Pub) Verify(msg []byte, sig Signature) bool {
	return len(sig) == ed25519.SignatureSize && ed25519.Verify(p.k, msg, sig)
}
func (p *ed25519Pub) Bytes() []byte  { return append([]byte(nil), p.k...) }
func (p *ed25519Pub) Scheme() Scheme { return Ed25519 }

type ecdsaPriv struct{ k *ecdsa.PrivateKey }

func (p *ecdsaPriv) Sign(msg []byte) (Signature, error) {
	digest := sha256.Sum256(msg)
	sig, err := ecdsa.SignASN1(rand.Reader, p.k, digest[:])
	if err != nil {
		return nil, fmt.Errorf("flcrypto: ecdsa sign: %w", err)
	}
	return Signature(sig), nil
}
func (p *ecdsaPriv) Public() PublicKey { return &ecdsaPub{&p.k.PublicKey} }
func (p *ecdsaPriv) Scheme() Scheme    { return ECDSAP256 }

type ecdsaPub struct{ k *ecdsa.PublicKey }

func (p *ecdsaPub) Verify(msg []byte, sig Signature) bool {
	digest := sha256.Sum256(msg)
	return ecdsa.VerifyASN1(p.k, digest[:], sig)
}
func (p *ecdsaPub) Bytes() []byte {
	return elliptic.MarshalCompressed(elliptic.P256(), p.k.X, p.k.Y)
}
func (p *ecdsaPub) Scheme() Scheme { return ECDSAP256 }

// ParsePublicKey reconstructs a PublicKey from Bytes output.
func ParsePublicKey(scheme Scheme, b []byte) (PublicKey, error) {
	switch scheme {
	case Ed25519:
		if len(b) != ed25519.PublicKeySize {
			return nil, errors.New("flcrypto: bad ed25519 public key length")
		}
		return &ed25519Pub{k: ed25519.PublicKey(append([]byte(nil), b...))}, nil
	case ECDSAP256:
		x, y := elliptic.UnmarshalCompressed(elliptic.P256(), b)
		if x == nil {
			return nil, errors.New("flcrypto: bad ecdsa public key encoding")
		}
		return &ecdsaPub{&ecdsa.PublicKey{Curve: elliptic.P256(), X: x, Y: y}}, nil
	default:
		return nil, fmt.Errorf("flcrypto: unknown scheme %v", scheme)
	}
}

// VerifyBatch reports, item by item, whether sigs[i] is a valid signature on
// msgs[i] under pubs[i] — per-item validity identical to calling pub.Verify
// item by item, because that is what it does. It panics if the slice lengths
// differ. Its one caller is benchmark/probes.go's
// flcrypto.verify_batch64_us_per_sig probe; it goes when that metric does.
func VerifyBatch(pubs []PublicKey, msgs [][]byte, sigs []Signature) []bool {
	if len(pubs) != len(msgs) || len(msgs) != len(sigs) {
		panic("flcrypto: VerifyBatch slice lengths differ")
	}
	valid := make([]bool, len(pubs))
	for i, pub := range pubs {
		valid[i] = pub != nil && pub.Verify(msgs[i], sigs[i])
	}
	return valid
}
