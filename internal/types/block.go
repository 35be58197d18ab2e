package types

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/flcrypto"
)

// Transaction is a client-submitted operation. In the paper's evaluation
// transactions are opaque random payloads of σ bytes (Table 2); applications
// (examples/payments, examples/kvstore) put structured data in Payload and
// interpret it in their validity predicate and state machine.
type Transaction struct {
	// Client identifies the submitting client (free-form).
	Client uint64
	// Seq is the client-local sequence number, giving each transaction a
	// unique identity together with Client.
	Seq uint64
	// Payload is the operation body; its length is the σ of the paper.
	Payload []byte
}

// Encode appends the transaction to e.
func (t *Transaction) Encode(e *Encoder) {
	e.Uint64(t.Client)
	e.Uint64(t.Seq)
	e.Bytes32(t.Payload)
}

// DecodeTransaction reads a transaction from d. The payload is copied, so
// the result is safe to retain regardless of the buffer's lifetime.
func DecodeTransaction(d *Decoder) Transaction {
	var t Transaction
	t.Client = d.Uint64()
	t.Seq = d.Uint64()
	t.Payload = append([]byte(nil), d.Bytes32()...)
	return t
}

// decodeTransactionShared is DecodeTransaction without the payload copy:
// Payload aliases the decoder's buffer. DecodeBody uses it — a decoded body
// already retains its wire slice for the encode-once fast path, so aliasing
// the per-transaction payloads adds zero extra retention and saves one
// allocation per transaction.
func decodeTransactionShared(d *Decoder) Transaction {
	var t Transaction
	t.Client = d.Uint64()
	t.Seq = d.Uint64()
	t.Payload = d.Bytes32()
	return t
}

// Size returns the encoded size in bytes.
func (t *Transaction) Size() int { return 8 + 8 + 4 + len(t.Payload) }

// ID returns the transaction's content hash.
func (t *Transaction) ID() flcrypto.Hash {
	e := GetEncoder(t.Size())
	t.Encode(e)
	h := flcrypto.Sum256(e.Bytes())
	e.Release()
	return h
}

// encMemo caches a value's canonical encoding and digest so they are
// computed at most once per constructed value (the encode-once/hash-once
// invariant). Copies of the owning struct share the memo through the
// pointer. The encoding slice is published through an atomic pointer so
// encode fast paths can peek without locking; mu serializes the one-time
// computations.
//
// A memo is only sound while the owning value is immutable: mutating a
// Body's transactions or a SignedHeader's header after the memo was
// populated leaves it stale. Decoded and signed values must therefore be
// treated as frozen — derive a fresh value instead of mutating in place
// (see the immutability test in block_test.go and README "Hot path &
// persistence").
type encMemo struct {
	mu       sync.Mutex
	enc      atomic.Pointer[[]byte]
	hashDone atomic.Bool
	hash     flcrypto.Hash
}

// seededMemo returns a memo pre-populated with the canonical encoding enc.
func seededMemo(enc []byte) *encMemo {
	m := &encMemo{}
	m.enc.Store(&enc)
	return m
}

// bytes returns the memoized encoding, computing it with f on first use.
// f must not consult the memo (it runs under m.mu).
func (m *encMemo) bytes(f func() []byte) []byte {
	if p := m.enc.Load(); p != nil {
		return *p
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if p := m.enc.Load(); p != nil {
		return *p
	}
	b := f()
	m.enc.Store(&b)
	return b
}

// peek returns the encoding if it is already memoized, nil otherwise.
func (m *encMemo) peek() []byte {
	if p := m.enc.Load(); p != nil {
		return *p
	}
	return nil
}

// digest returns the memoized SHA-256 of the encoding, computing encoding
// and digest on first use.
func (m *encMemo) digest(f func() []byte) flcrypto.Hash {
	if m.hashDone.Load() {
		return m.hash
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.hashDone.Load() {
		return m.hash
	}
	p := m.enc.Load()
	if p == nil {
		b := f()
		m.enc.Store(&b)
		p = &b
	}
	m.hash = flcrypto.Sum256(*p)
	m.hashDone.Store(true)
	return m.hash
}

// seedDigest installs a known digest (used by constructors that already
// computed it).
func (m *encMemo) seedDigest(h flcrypto.Hash) {
	m.mu.Lock()
	m.hash = h
	m.hashDone.Store(true)
	m.mu.Unlock()
}

// BlockHeader is the consensus-path view of a block (§6.1.1 separates headers
// from block bodies: only headers flow through WRB/OBBC; bodies are
// disseminated asynchronously). The header carries the authentication data
// linking the chain: PrevHash commits to the entire prefix.
//
// BlockHeader is a plain comparable value with no caching state; the
// encode-once/hash-once memos live on SignedHeader (HeaderBytes/HeaderHash)
// and Body, which every hot path holds.
type BlockHeader struct {
	// Instance is the FLO worker index this chain belongs to (§6.2).
	Instance uint32
	// Round is the chain height / protocol round r of Algorithm 2.
	Round uint64
	// Proposer is the node that created the block.
	Proposer flcrypto.NodeID
	// PrevHash is the hash of the predecessor block's header.
	PrevHash flcrypto.Hash
	// BodyHash commits to the block body (the transaction batch), so a
	// header uniquely identifies its body.
	BodyHash flcrypto.Hash
	// TxCount is the number of transactions in the body; carried in the
	// header so empty blocks are recognizable without fetching the body.
	TxCount uint32
}

// headerWireSize is the fixed encoded size of a BlockHeader.
const headerWireSize = 4 + 8 + 8 + 32 + 32 + 4

// Encode appends the header to e.
func (h BlockHeader) Encode(e *Encoder) {
	e.Uint32(h.Instance)
	e.Uint64(h.Round)
	e.Int64(int64(h.Proposer))
	e.Hash(h.PrevHash)
	e.Hash(h.BodyHash)
	e.Uint32(h.TxCount)
}

// DecodeBlockHeader reads a header from d.
func DecodeBlockHeader(d *Decoder) BlockHeader {
	var h BlockHeader
	h.Instance = d.Uint32()
	h.Round = d.Uint64()
	h.Proposer = flcrypto.NodeID(d.Int64())
	h.PrevHash = d.Hash()
	h.BodyHash = d.Hash()
	h.TxCount = d.Uint32()
	return h
}

// Marshal returns the standalone encoding of the header; this is the byte
// string nodes sign and hash. Callers that hold a SignedHeader should use
// HeaderBytes instead, which memoizes.
func (h BlockHeader) Marshal() []byte {
	e := NewEncoder(headerWireSize)
	h.Encode(e)
	return e.Bytes()
}

// Hash returns the header's digest, which serves as the block's identity and
// as the next block's PrevHash. Callers that hold a SignedHeader or Block
// should use HeaderHash/Block.Hash instead, which memoize.
func (h BlockHeader) Hash() flcrypto.Hash {
	e := GetEncoder(headerWireSize)
	h.Encode(e)
	sum := flcrypto.Sum256(e.Bytes())
	e.Release()
	return sum
}

// SignedHeader is a header together with its proposer's signature — the
// (m, sig_k(m)) pairs of Algorithm 1 and the evidence of OBBC (Appendix A.5).
type SignedHeader struct {
	Header BlockHeader
	Sig    flcrypto.Signature

	// memo caches the canonical header encoding (the signed bytes) and its
	// hash. Decode retains the wire slice; Sign retains the bytes it signed.
	// Values built by struct literal carry a nil memo and compute per call.
	// Copies share the memo; the Header must not be mutated once the value
	// is signed, decoded, or hashed.
	memo *encMemo
}

// HeaderBytes returns the canonical encoding of the header — the bytes the
// proposer signed — computing it at most once per constructed value. The
// returned slice must not be modified.
func (s *SignedHeader) HeaderBytes() []byte {
	if m := s.memo; m != nil {
		return m.bytes(s.Header.Marshal)
	}
	return s.Header.Marshal()
}

// HeaderHash returns the header's digest, computed at most once per
// constructed value. It equals Header.Hash().
func (s *SignedHeader) HeaderHash() flcrypto.Hash {
	if m := s.memo; m != nil {
		return m.digest(s.Header.Marshal)
	}
	return s.Header.Hash()
}

// Encode appends the signed header to e.
func (s *SignedHeader) Encode(e *Encoder) {
	if m := s.memo; m != nil {
		e.Raw(m.bytes(s.Header.Marshal))
	} else {
		s.Header.Encode(e)
	}
	e.Bytes32(s.Sig)
}

// DecodeSignedHeader reads a signed header from d. The header's wire bytes
// are retained as its canonical encoding (encode-once), so re-encoding and
// signature verification skip the marshal.
func DecodeSignedHeader(d *Decoder) SignedHeader {
	start := d.buf
	var s SignedHeader
	s.Header = DecodeBlockHeader(d)
	if d.err == nil {
		s.memo = seededMemo(start[:headerWireSize:headerWireSize])
	}
	s.Sig = append(flcrypto.Signature(nil), d.Bytes32()...)
	return s
}

// Verify checks the proposer's signature against the registry.
func (s *SignedHeader) Verify(reg *flcrypto.Registry) bool {
	return s.VerifyPooled(reg, nil)
}

// VerifyPooled is Verify through a verification pool's cache; WRB piggyback
// echoes, OBBC evidence responses, and recovery versions all re-present the
// same signed header, so consensus-path callers route through the shared
// pool. A nil pool verifies synchronously and uncached.
func (s *SignedHeader) VerifyPooled(reg *flcrypto.Registry, pool *flcrypto.VerifyPool) bool {
	return pool.VerifyNode(reg, s.Header.Proposer, s.HeaderBytes(), s.Sig)
}

// Sign produces a SignedHeader using the proposer's private key. The signed
// bytes are retained as the header's canonical encoding.
func (h BlockHeader) Sign(priv flcrypto.PrivateKey) (SignedHeader, error) {
	msg := h.Marshal()
	sig, err := priv.Sign(msg)
	if err != nil {
		return SignedHeader{}, fmt.Errorf("types: sign header: %w", err)
	}
	return SignedHeader{Header: h, Sig: sig, memo: seededMemo(msg)}, nil
}

// Body is a block's transaction batch, disseminated on the data path.
type Body struct {
	Txs []Transaction

	// memo caches the canonical body encoding and its hash — the body is
	// the largest repeatedly-encoded object on the hot path (broadcast
	// framing, body-hash checks, store appends, range sync all consume the
	// same bytes). Decode retains the wire slice; NewBlock seeds it from
	// the encoding used for BodyHash. Literal-constructed bodies carry a
	// nil memo and compute per call. Txs must not be mutated once the body
	// is hashed, marshaled, or decoded.
	memo *encMemo
}

// Encode appends the body to e.
func (b *Body) Encode(e *Encoder) {
	if m := b.memo; m != nil {
		e.Raw(m.bytes(b.encodeFresh))
		return
	}
	b.encodeInto(e)
}

// encodeInto appends the field-wise encoding, bypassing the memo.
func (b *Body) encodeInto(e *Encoder) {
	e.Uint32(uint32(len(b.Txs)))
	for i := range b.Txs {
		b.Txs[i].Encode(e)
	}
}

// encodeFresh computes the standalone encoding without consulting the memo.
func (b *Body) encodeFresh() []byte {
	e := NewEncoder(b.Size())
	b.encodeInto(e)
	return e.Bytes()
}

// DecodeBody reads a body from d. The body's wire bytes are retained as its
// canonical encoding, and transaction payloads alias the buffer — callers
// must treat the buffer as frozen once decoded (every transport and store
// path hands DecodeBody a buffer owned by the decoded message).
func DecodeBody(d *Decoder) Body {
	start := d.buf
	n := d.Uint32()
	if d.Err() != nil {
		return Body{}
	}
	// A transaction takes at least 20 bytes (client, seq, payload length): a
	// count the rest of the input cannot hold is corrupt, and refusing it
	// here keeps a short frame from allocating for millions of transactions.
	if uint64(n)*20 > uint64(d.Len()) {
		d.Fail(ErrTruncated)
		return Body{}
	}
	body := Body{Txs: make([]Transaction, 0, n)}
	for i := uint32(0); i < n && d.Err() == nil; i++ {
		body.Txs = append(body.Txs, decodeTransactionShared(d))
	}
	if d.Err() == nil {
		consumed := len(start) - len(d.buf)
		body.memo = seededMemo(start[:consumed:consumed])
	}
	return body
}

// Size returns the encoded size of the body in bytes.
func (b *Body) Size() int {
	n := 4
	for i := range b.Txs {
		n += b.Txs[i].Size()
	}
	return n
}

// Marshal returns the standalone encoding of the body, computed at most
// once per constructed value. The returned slice must not be modified.
func (b *Body) Marshal() []byte {
	if m := b.memo; m != nil {
		return m.bytes(b.encodeFresh)
	}
	return b.encodeFresh()
}

// emptyBodyHash is the digest of the zero-transaction body — consulted on
// every body fetch of an empty block, so it is computed exactly once per
// process instead of re-marshaling an empty sentinel at each call site.
var (
	emptyBodyHashOnce sync.Once
	emptyBodyHashVal  flcrypto.Hash
)

// EmptyBodyHash returns the hash of the empty body (Body{}).
func EmptyBodyHash() flcrypto.Hash {
	emptyBodyHashOnce.Do(func() {
		var enc [4]byte // uint32(0) transaction count
		emptyBodyHashVal = flcrypto.Sum256(enc[:])
	})
	return emptyBodyHashVal
}

// Hash returns the digest a header's BodyHash must match.
func (b *Body) Hash() flcrypto.Hash {
	if len(b.Txs) == 0 {
		return EmptyBodyHash()
	}
	if m := b.memo; m != nil {
		return m.digest(b.encodeFresh)
	}
	e := GetEncoder(b.Size())
	b.encodeInto(e)
	sum := flcrypto.Sum256(e.Bytes())
	e.Release()
	return sum
}

// Block pairs a signed header with its body. Only fully assembled blocks are
// appended to the chain.
type Block struct {
	Signed SignedHeader
	Body   Body
}

// Header returns the block's header.
func (b *Block) Header() *BlockHeader { return &b.Signed.Header }

// Hash returns the block's identity (its header hash), memoized.
func (b *Block) Hash() flcrypto.Hash { return b.Signed.HeaderHash() }

// Encode appends the full block to e.
func (b *Block) Encode(e *Encoder) {
	b.Signed.Encode(e)
	b.Body.Encode(e)
}

// DecodeBlock reads a block from d.
func DecodeBlock(d *Decoder) Block {
	var b Block
	b.Signed = DecodeSignedHeader(d)
	b.Body = DecodeBody(d)
	return b
}

// ErrBodyMismatch reports a body whose hash does not match its header.
var ErrBodyMismatch = errors.New("types: body hash does not match header")

// CheckBody verifies internal consistency between header and body.
func (b *Block) CheckBody() error {
	if b.Body.Hash() != b.Signed.Header.BodyHash {
		return ErrBodyMismatch
	}
	if uint32(len(b.Body.Txs)) != b.Signed.Header.TxCount {
		return fmt.Errorf("types: header declares %d txs, body has %d",
			b.Signed.Header.TxCount, len(b.Body.Txs))
	}
	return nil
}

// NewBlock assembles and signs a block extending prev (identified by its
// header hash) with the given batch. The body encoding computed for
// BodyHash is retained, so disseminating and persisting the block never
// re-encodes the transaction list.
func NewBlock(instance uint32, round uint64, proposer flcrypto.NodeID,
	prevHash flcrypto.Hash, txs []Transaction, priv flcrypto.PrivateKey) (Block, error) {
	body := Body{Txs: txs}
	var bodyHash flcrypto.Hash
	if len(txs) == 0 {
		bodyHash = EmptyBodyHash()
	} else {
		enc := body.encodeFresh()
		bodyHash = flcrypto.Sum256(enc)
		body.memo = seededMemo(enc)
		body.memo.seedDigest(bodyHash)
	}
	hdr := BlockHeader{
		Instance: instance,
		Round:    round,
		Proposer: proposer,
		PrevHash: prevHash,
		BodyHash: bodyHash,
		TxCount:  uint32(len(txs)),
	}
	signed, err := hdr.Sign(priv)
	if err != nil {
		return Block{}, err
	}
	return Block{Signed: signed, Body: body}, nil
}

// GenesisHeader returns the implicit round-0 predecessor of instance's chain.
// It is identical at all correct nodes, so round-1 headers chain to a common
// root without any communication.
func GenesisHeader(instance uint32) BlockHeader {
	return BlockHeader{Instance: instance, Round: 0, Proposer: -1}
}
