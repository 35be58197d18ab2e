package core

import (
	"testing"
	"time"

	"repro/internal/flcrypto"
	"repro/internal/transport"
	"repro/internal/types"
)

// newTestDataPath wires a bare data path (no instance, no consensus
// services) onto one node of a chan network, for protocol-level tests.
func newTestDataPath(t *testing.T, net *transport.ChanNetwork, ks *flcrypto.KeySet, id flcrypto.NodeID, chain *Chain, batch int) (*dataPath, *Metrics, chan struct{}) {
	t.Helper()
	mux := transport.NewMux(net.Endpoint(id))
	m := &Metrics{}
	dp := newDataPath(mux, 3, ks.Registry, nil, chain, m, dataOpts{catchUpBatch: batch})
	stop := make(chan struct{})
	dp.ranger = newRangeSyncer(dp, id, ks.Registry.N(), stop, m)
	mux.Start()
	t.Cleanup(mux.Stop)
	return dp, m, stop
}

// TestRangeSyncDeepCatchUp is the acceptance-criterion test: a node more
// than 1000 definite rounds behind must rejoin via range sync with at most
// rounds/CatchUpBatch + O(1) catch-up requests — not one broadcast per
// round — and end with a verified, intact chain.
func TestRangeSyncDeepCatchUp(t *testing.T) {
	const (
		n      = 4
		rounds = 1250
		batch  = 50
	)
	ks := testKeySet(t, n)
	net := transport.NewChanNetwork(transport.ChanConfig{N: n})
	t.Cleanup(net.Close)

	src := buildChain(t, ks, 0, rounds)
	src.MarkDefinite(uint64(rounds))
	for id := 1; id < n; id++ {
		newTestDataPath(t, net, ks, flcrypto.NodeID(id), src, batch)
	}

	client := NewChain(0)
	dp, m, stop := newTestDataPath(t, net, ks, 0, client, batch)
	defer close(stop)

	// Adoption loop standing in for the instance's round loop.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for client.Tip() < rounds {
			seg := dp.takeSegment(client.Tip()+1, 4*batch)
			if len(seg) == 0 {
				select {
				case <-dp.updateChan():
				case <-time.After(20 * time.Millisecond):
				case <-stop:
					return
				}
				continue
			}
			for i := range seg {
				if err := client.Append(seg[i]); err != nil {
					t.Errorf("adopt round %d: %v", seg[i].Header().Round, err)
					return
				}
			}
			client.MarkDefinite(client.Tip())
		}
	}()

	dp.ranger.noteBehind(rounds)
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatalf("range sync stalled at round %d of %d (reqs=%d)", client.Tip(), rounds, m.CatchUpRangeReqs.Load())
	}

	if err := client.Audit(ks.Registry); err != nil {
		t.Fatalf("synced chain fails audit: %v", err)
	}
	reqs := m.CatchUpRangeReqs.Load()
	maxReqs := uint64(rounds/batch) + 3 // ≤ rounds/CatchUpBatch + O(1)
	if reqs == 0 || reqs > maxReqs {
		t.Fatalf("range sync used %d requests for %d rounds (want 1..%d)", reqs, rounds, maxReqs)
	}
	if br := m.CatchUpBlockReqs.Load(); br > 3 {
		t.Fatalf("range sync fell back to %d per-round block broadcasts", br)
	}
	if got := m.CatchUpRangeBlocks.Load(); got < rounds {
		t.Fatalf("only %d of %d blocks arrived on the range path", got, rounds)
	}
}

// TestRangeSyncRetargetsDeadPeer cuts the first-choice peer off mid-stream:
// the syncer must time out and resume from another peer.
func TestRangeSyncRetargetsDeadPeer(t *testing.T) {
	const (
		n      = 4
		rounds = 120
		batch  = 10
	)
	ks := testKeySet(t, n)
	net := transport.NewChanNetwork(transport.ChanConfig{N: n})
	t.Cleanup(net.Close)

	src := buildChain(t, ks, 0, rounds)
	src.MarkDefinite(uint64(rounds))
	for id := 2; id < n; id++ {
		newTestDataPath(t, net, ks, flcrypto.NodeID(id), src, batch)
	}
	// Node 1 — the syncer's first choice after self — is unreachable.
	net.Crash(1)

	client := NewChain(0)
	dp, _, stop := newTestDataPath(t, net, ks, 0, client, batch)
	defer close(stop)

	go func() {
		for client.Tip() < rounds {
			seg := dp.takeSegment(client.Tip()+1, 4*batch)
			for i := range seg {
				if client.Append(seg[i]) != nil {
					return
				}
			}
			if len(seg) == 0 {
				select {
				case <-dp.updateChan():
				case <-time.After(20 * time.Millisecond):
				case <-stop:
					return
				}
			}
		}
	}()

	dp.ranger.noteBehind(rounds)
	deadline := time.Now().Add(30 * time.Second)
	for client.Tip() < rounds {
		if time.Now().After(deadline) {
			t.Fatalf("sync stuck at %d of %d after losing the first peer", client.Tip(), rounds)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestServeRangeFraming exercises the request/response wire format
// directly: batch caps, the more flag, the empty-range terminal response,
// and rejection of unverifiable blocks.
func TestServeRangeFraming(t *testing.T) {
	const n = 4
	ks := testKeySet(t, n)
	net := transport.NewChanNetwork(transport.ChanConfig{N: n})
	t.Cleanup(net.Close)

	src := buildChain(t, ks, 0, 30)
	src.MarkDefinite(25) // 5 tentative rounds must never be served
	newTestDataPath(t, net, ks, 1, src, 10)

	client := NewChain(0)
	dp, m, stop := newTestDataPath(t, net, ks, 0, client, 10)
	defer close(stop)

	// Full-range request: rounds 1..25 in batches of 10 within one stream.
	dp.sendRangeReq(1, 7, 1, 0)
	waitFor(t, 5*time.Second, func() bool { return dp.fetchedLen() == 25 })
	if got := m.CatchUpRangeBlocks.Load(); got != 25 {
		t.Fatalf("stored %d blocks, want 25 (tentative rounds must not be served)", got)
	}
	// The buffered run is contiguous from round 1.
	if f := dp.frontier(); f != 26 {
		t.Fatalf("frontier %d, want 26", f)
	}

	// Bounded request: [5, 8) — but rounds 1..4 are already buffered, so
	// only dup-filtered entries remain; ask beyond the definite tip and
	// the server must clamp.
	dp2client := dp.takeSegment(1, 25)
	if len(dp2client) != 25 {
		t.Fatalf("takeSegment returned %d blocks, want 25", len(dp2client))
	}
	for i := range dp2client {
		if err := client.Append(dp2client[i]); err != nil {
			t.Fatal(err)
		}
	}
	dp.sendRangeReq(1, 8, 26, 40)
	time.Sleep(200 * time.Millisecond)
	if f := dp.fetchedLen(); f != 0 {
		t.Fatalf("server served %d blocks beyond its definite tip", f)
	}
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestStoreFetchedWindowBound verifies the catch-up buffer's memory bound:
// rounds beyond the adoption window are refused.
func TestStoreFetchedWindowBound(t *testing.T) {
	ks := testKeySet(t, 4)
	net := transport.NewChanNetwork(transport.ChanConfig{N: 4})
	t.Cleanup(net.Close)

	src := buildChain(t, ks, 0, 300)
	client := NewChain(0)
	dp, _, stop := newTestDataPath(t, net, ks, 0, client, 10) // window = 40
	defer close(stop)

	var blks []types.Block
	for r := uint64(1); r <= 300; r++ {
		blk, _ := src.BlockAt(r)
		blks = append(blks, blk)
	}
	stored := dp.storeFetched(blks)
	if want := int(dp.fetchWindow()); stored != want {
		t.Fatalf("stored %d blocks, want the window bound %d", stored, want)
	}
	if dp.fetchedLen() != int(dp.fetchWindow()) {
		t.Fatalf("buffer holds %d entries, want %d", dp.fetchedLen(), dp.fetchWindow())
	}
}

// TestMaybeRequestBodyPerHashPacing is the regression test for the pull
// limiter: alternating misses between two hashes must not bypass pacing,
// and a new hash must not reset another's window.
func TestMaybeRequestBodyPerHashPacing(t *testing.T) {
	ks := testKeySet(t, 4)
	net := transport.NewChanNetwork(transport.ChanConfig{N: 2})
	t.Cleanup(net.Close)

	client := NewChain(0)
	dp, _, stop := newTestDataPath(t, net, ks, 0, client, 10)
	defer close(stop)

	a := flcrypto.Sum256([]byte("a"))
	b := flcrypto.Sum256([]byte("b"))
	base := net.MessagesSent(0)
	for i := 0; i < 50; i++ {
		dp.maybeRequestBody(a)
		dp.maybeRequestBody(b)
	}
	// One broadcast per hash (N-1 = 1 wire message each), not 100.
	if sent := sentAfterPullGrace(net, base, 2); sent != 2 {
		t.Fatalf("alternating hashes sent %d messages inside one pacing window, want 2", sent)
	}
	dp.maybeRequestBody(a)
	if sent := sentAfterPullGrace(net, base, 3); sent != 3 {
		t.Fatalf("expired window should re-send (got %d messages, want 3)", sent)
	}
}

// TestMaybeRequestBodyWaitsForPush pins the pull's grace: a body that lands
// within pullRetryInterval of the miss cancels the pull, so a header that
// overtook its pushed body does not draw a copy of the body from every peer.
func TestMaybeRequestBodyWaitsForPush(t *testing.T) {
	ks := testKeySet(t, 4)
	net := transport.NewChanNetwork(transport.ChanConfig{N: 2})
	t.Cleanup(net.Close)
	dp, _, stop := newTestDataPath(t, net, ks, 0, NewChain(0), 10)
	defer close(stop)

	pushed := types.Body{Txs: []types.Transaction{{Client: 1, Seq: 1, Payload: []byte("pushed")}}}
	missing := types.Body{Txs: []types.Transaction{{Client: 1, Seq: 2, Payload: []byte("missing")}}}
	base := net.MessagesSent(0)
	dp.maybeRequestBody(pushed.Hash())
	dp.maybeRequestBody(missing.Hash())
	dp.store(pushed)
	if sent := sentAfterPullGrace(net, base, 1); sent != 1 {
		t.Fatalf("sent %d pulls, want 1: only the body that never arrived is pulled", sent)
	}
}

// sentAfterPullGrace reports how many messages node 0 has sent since base.
// It waits for the count to reach want (at most a second), then two more
// pull grace periods, so that a pull sent in excess is counted too.
func sentAfterPullGrace(net *transport.ChanNetwork, base, want uint64) uint64 {
	for deadline := time.Now().Add(time.Second); net.MessagesSent(0)-base < want && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(2 * pullRetryInterval)
	return net.MessagesSent(0) - base
}
