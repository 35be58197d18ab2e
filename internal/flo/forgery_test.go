package flo

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/flcrypto"
	"repro/internal/obbc"
	"repro/internal/transport"
	"repro/internal/types"
	"repro/internal/workload"
)

// TestForgedEnvelopesRejectedOnEveryPath drives the acceptance criterion of
// the async-verification pipeline: forged envelopes injected at the
// transport layer must be rejected on every protocol path, including forged
// variants of envelopes whose genuine versions the verify cache has already
// seen (no verification bypass via the cache).
//
// Node 3's endpoint is controlled by the test: it captures a genuine signed
// header broadcast by the correct nodes, builds forgeries from it (tampered
// signature; tampered content under the original signature; garbage), and
// injects them repeatedly on the WRB, OBBC, PBFT, reliable-broadcast, and
// data-path protocols of worker 0. The three correct nodes must keep
// deciding blocks, adopt only correctly-signed blocks (Chain.Audit
// re-verifies every signature), and never enter recovery.
func TestForgedEnvelopesRejectedOnEveryPath(t *testing.T) {
	const (
		n         = 4
		protoPBFT = 1
		protoWRB  = 8 // worker 0's base
		protoOBBC = 9
		protoRB   = 10
		protoData = 11
	)
	ks := flcrypto.MustGenerateKeySet(n, flcrypto.Ed25519)
	net := transport.NewChanNetwork(transport.ChanConfig{N: n})
	defer net.Close()

	var nodes []*Node
	for i := 0; i < n-1; i++ {
		node, err := NewNode(Config{
			Endpoint:     net.Endpoint(flcrypto.NodeID(i)),
			Registry:     ks.Registry,
			Priv:         ks.Privs[i],
			Workers:      1,
			BatchSize:    10,
			Source:       workload.Saturating(flcrypto.NodeID(i), 64),
			InitialTimer: 50 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, node)
	}
	for _, node := range nodes {
		node.Start()
	}
	defer func() {
		for _, node := range nodes {
			node.Stop()
		}
	}()

	// Harvest one genuine WRB header push from the traffic node 3 receives.
	ep3 := net.Endpoint(flcrypto.NodeID(3))
	genuine, ok := captureHeader(t, ep3, protoWRB)
	if !ok {
		t.Fatal("no genuine header captured")
	}
	// The correct nodes have already verified (and cached) the genuine
	// envelope, since it was broadcast to everyone — the forgeries below
	// probe exactly the "cached genuine, forged variant" aliasing risk.

	// Forgery 1: genuine header, tampered signature.
	badSig := genuine
	badSig.Sig = append(flcrypto.Signature(nil), genuine.Sig...)
	badSig.Sig[0] ^= 0xff
	// Forgery 2: tampered content under the genuine signature.
	badBody := genuine
	badBody.Header.BodyHash = flcrypto.Sum256([]byte("forged body"))
	// Forgery 3: node 3 signs nothing — garbage signature on a header
	// claiming to come from node 3 itself (passes WRB's proposer==from
	// check, must still die on crypto).
	selfForged := genuine
	selfForged.Header.Proposer = 3
	selfForged.Sig = flcrypto.Signature("not a signature at all")

	key := wrbKey(genuine)
	send := func(proto transport.ProtoID, payload []byte) {
		t.Helper()
		env := append([]byte{byte(proto)}, payload...)
		if err := ep3.Broadcast(env); err != nil {
			t.Fatal(err)
		}
	}
	// Repeat every injection so later copies exercise the cached-negative
	// path as well as the first-sight path.
	for round := 0; round < 3; round++ {
		for _, f := range []types.SignedHeader{badSig, badBody, selfForged} {
			// WRB push (Algorithm 1's (m, sig_k(m)) broadcast).
			send(protoWRB, wrbPush(f))
			// WRB pull response carrying the forgery as evidence.
			send(protoWRB, wrbPullResp(key, f))
			// OBBC vote piggybacking the forgery (§5.1 path).
			send(protoOBBC, obbcVotePgd(key, f))
			// OBBC evidence response carrying the forgery.
			send(protoOBBC, obbcEvResp(key, f))
			// Data path: a "definite block" whose header is forged.
			send(protoData, dataRespBlock(f))
			// Reliable broadcast: a panic proof built from forgeries.
			send(protoRB, rbSendProof(f, genuine, uint64(round+1)))
		}
		// PBFT: envelope with a garbage signature.
		send(protoPBFT, pbftEnvelope([]byte("forged pbft body"), []byte("bad sig")))
	}

	// The correct cluster keeps deciding blocks despite the injections.
	target := nodes[0].Worker(0).Chain().Definite() + 5
	deadline := time.Now().Add(20 * time.Second)
	for {
		done := true
		for _, node := range nodes {
			if node.Worker(0).Chain().Definite() < target {
				done = false
			}
		}
		if done {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("cluster stalled after forgery injection (definite %d < %d)",
				nodes[0].Worker(0).Chain().Definite(), target)
		}
		time.Sleep(5 * time.Millisecond)
	}

	for i, node := range nodes {
		// Audit re-verifies every adopted block's signature and linkage: if
		// any forgery slipped through any path (or the cache vouched for
		// one), this fails.
		if err := node.Worker(0).Chain().Audit(ks.Registry); err != nil {
			t.Fatalf("node %d chain audit: %v", i, err)
		}
		// Forged panic proofs must not have triggered recoveries.
		if rec := node.Worker(0).Metrics().Recoveries.Load(); rec != 0 {
			t.Fatalf("node %d ran %d recoveries off forged proofs", i, rec)
		}
		// The tampered-body header must not appear anywhere in the chain.
		ch := node.Worker(0).Chain()
		for r := uint64(1); r <= ch.Tip(); r++ {
			if blk, ok := ch.BlockAt(r); ok && blk.Header().BodyHash == badBody.Header.BodyHash {
				t.Fatalf("node %d adopted the forged body hash at round %d", i, r)
			}
		}
	}
}

// captureHeader reads node 3's inbound traffic until a WRB push appears and
// returns its signed header.
func captureHeader(t *testing.T, ep transport.Endpoint, proto transport.ProtoID) (types.SignedHeader, bool) {
	t.Helper()
	deadline := time.After(10 * time.Second)
	for {
		select {
		case msg, open := <-ep.Recv():
			if !open {
				return types.SignedHeader{}, false
			}
			if len(msg.Payload) < 2 || transport.ProtoID(msg.Payload[0]) != proto || msg.Payload[1] != 1 {
				continue // not a WRB push
			}
			d := types.NewDecoder(msg.Payload[2:])
			hdr := types.DecodeSignedHeader(d)
			if d.Finish() == nil {
				return hdr, true
			}
		case <-deadline:
			return types.SignedHeader{}, false
		}
	}
}

// --- Wire-format builders mirroring the protocols' encoders ---

func wrbKey(hdr types.SignedHeader) obbc.Key {
	return obbc.Key{Instance: hdr.Header.Instance, Round: hdr.Header.Round, Proposer: hdr.Header.Proposer}
}

func encodeKey(e *types.Encoder, key obbc.Key) {
	e.Uint32(key.Instance)
	e.Uint64(key.Round)
	e.Int64(int64(key.Proposer))
}

// headerEvidence is a header-only WRB evidence(1) encoding.
func headerEvidence(hdr types.SignedHeader) []byte {
	e := types.NewEncoder(192)
	hdr.Encode(e)
	e.Uint8(0) // evHeaderOnly
	return e.Bytes()
}

func wrbPush(hdr types.SignedHeader) []byte {
	e := types.NewEncoder(192)
	e.Uint8(1) // kindPush
	hdr.Encode(e)
	return e.Bytes()
}

func wrbPullResp(key obbc.Key, hdr types.SignedHeader) []byte {
	ev := headerEvidence(hdr)
	e := types.NewEncoder(64 + len(ev))
	e.Uint8(3) // kindRespMsg
	encodeKey(e, key)
	e.Bytes32(ev)
	return e.Bytes()
}

func obbcVotePgd(key obbc.Key, hdr types.SignedHeader) []byte {
	pgd := types.NewEncoder(192)
	hdr.Encode(pgd)
	e := types.NewEncoder(64 + 192)
	e.Uint8(1) // kindVote
	encodeKey(e, key)
	e.Uint8(0) // vote value
	e.Bytes32(pgd.Bytes())
	return e.Bytes()
}

func obbcEvResp(key obbc.Key, hdr types.SignedHeader) []byte {
	ev := headerEvidence(hdr)
	e := types.NewEncoder(64 + len(ev))
	e.Uint8(3) // kindEvResp
	encodeKey(e, key)
	e.Bytes32(ev)
	return e.Bytes()
}

func dataRespBlock(hdr types.SignedHeader) []byte {
	blk := types.Block{Signed: hdr}
	e := types.NewEncoder(256)
	e.Uint8(5) // kindRespBlock
	blk.Encode(e)
	return e.Bytes()
}

func rbSendProof(curr, prev types.SignedHeader, seq uint64) []byte {
	curr.Header.Round = prev.Header.Round + 1 // plausible rounds, bogus sigs
	proof := core.Proof{Curr: curr, Prev: prev}
	payload := proof.Marshal()
	e := types.NewEncoder(32 + len(payload))
	e.Uint8(1) // kindSend
	e.Int64(3) // origin = node 3
	e.Uint64(seq)
	e.Bytes32(payload)
	return e.Bytes()
}

func pbftEnvelope(body, sig []byte) []byte {
	e := types.NewEncoder(16 + len(body) + len(sig))
	e.Bytes32(body)
	e.Bytes32(sig)
	return e.Bytes()
}
