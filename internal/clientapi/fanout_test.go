package clientapi

import (
	"context"
	"fmt"
	"net"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/flcrypto"
	"repro/internal/store"
	"repro/internal/types"
)

// filterPrefixA marks the payloads the filtered tests subscribe to: rounds
// divisible by 3 carry an 'A'-prefixed transaction, the rest 'B'.
func filterPrefix(r int) byte {
	if r%3 == 0 {
		return 'A'
	}
	return 'B'
}

// buildFilterBlocks produces a linked single-worker chain whose blocks carry
// distinguishable transactions: round r has one tx from client 900+r%2 with
// payload [filterPrefix(r), r].
func buildFilterBlocks(t *testing.T, ks *flcrypto.KeySet, n int) []types.Block {
	t.Helper()
	prev := types.GenesisHeader(0).Hash()
	var out []types.Block
	for r := 1; r <= n; r++ {
		proposer := (r - 1) % ks.Registry.N()
		txs := []types.Transaction{{
			Client:  900 + uint64(r%2),
			Seq:     uint64(r),
			Payload: []byte{filterPrefix(r), byte(r)},
		}}
		blk, err := types.NewBlock(0, uint64(r), flcrypto.NodeID(proposer), prev, txs, ks.Privs[proposer])
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, blk)
		prev = blk.Hash()
	}
	return out
}

// TestFilterMatchAndWire pins the 1.3 filter semantics (conjunction on a
// single transaction; the empty filter matches everything) and the SUBSCRIBE
// round trip for every flag combination.
func TestFilterMatchAndWire(t *testing.T) {
	tx := types.Transaction{Client: 7, Seq: 1, Payload: []byte("Axyz")}
	body := &types.Body{Txs: []types.Transaction{tx, {Client: 9, Seq: 2, Payload: []byte("Bxyz")}}}
	cases := []struct {
		name  string
		flt   Filter
		block bool
	}{
		{"empty", Filter{}, true},
		{"client-hit", Filter{HasClient: true, Client: 9}, true},
		{"client-miss", Filter{HasClient: true, Client: 8}, false},
		{"prefix-hit", Filter{TxPrefix: []byte("Ax")}, true},
		{"prefix-miss", Filter{TxPrefix: []byte("C")}, false},
		{"conjunction-same-tx", Filter{HasClient: true, Client: 7, TxPrefix: []byte("A")}, true},
		// Client 9's tx starts with 'B', client 7's with 'A': both conditions
		// hold somewhere in the block but on no single transaction.
		{"conjunction-split", Filter{HasClient: true, Client: 9, TxPrefix: []byte("A")}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.flt.MatchBlock(body); got != tc.block {
				t.Fatalf("MatchBlock = %v, want %v", got, tc.block)
			}
			cur := Cursor{Worker: 2, Round: 77}
			wire := marshalSubscribe(cur, tc.flt)
			gotCur, gotFlt, err := decodeSubscribe(wire[5:])
			if err != nil {
				t.Fatal(err)
			}
			if gotCur != cur {
				t.Fatalf("cursor round trip: %+v", gotCur)
			}
			if gotFlt.HasClient != tc.flt.HasClient || gotFlt.Client != tc.flt.Client ||
				string(gotFlt.TxPrefix) != string(tc.flt.TxPrefix) {
				t.Fatalf("filter round trip: got %+v, want %+v", gotFlt, tc.flt)
			}
		})
	}
}

// TestFilteredResumeAcrossReplayAndLive is the filter-semantics contract of
// the fan-out hub: a prefix-filtered subscription sees exactly the matching
// blocks whether they arrive via cohort replay or the live ring, and a
// subscriber that disconnects mid-stream and resumes at Cursor.Next sees
// exactly the matching suffix — no gaps, no duplicates — across both tiers.
func TestFilteredResumeAcrossReplayAndLive(t *testing.T) {
	ks := flcrypto.MustGenerateKeySet(4, flcrypto.Ed25519)
	log, _, err := store.Open(filepath.Join(t.TempDir(), "w0.log"), store.Options{Registry: ks.Registry, Instance: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	blocks := buildFilterBlocks(t, ks, 40)
	node := newFakeNode(t, log)
	// Rounds 1..25 are history from before the server existed; 26..40 are
	// delivered live later.
	for _, blk := range blocks[:25] {
		node.deliver(blk)
	}
	srv := NewServer(node, ServerOptions{})
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	flt := Filter{TxPrefix: []byte{'A'}} // rounds divisible by 3

	recv := func(events <-chan BlockEvent, want uint64, via string) {
		t.Helper()
		select {
		case ev := <-events:
			if ev.Err != nil {
				t.Fatalf("%s: stream error before round %d: %v", via, want, ev.Err)
			}
			if r := ev.Block.Signed.Header.Round; r != want {
				t.Fatalf("%s: got round %d, want %d (filtered gap or duplicate)", via, r, want)
			}
			if ev.Block.Hash() != blocks[want-1].Hash() {
				t.Fatalf("%s: round %d content mismatch", via, want)
			}
		case <-ctx.Done():
			t.Fatalf("%s: timed out waiting for round %d", via, want)
		}
	}

	// First connection: filtered from genesis, replay tier. Take the first
	// five matches (rounds 3..15), then vanish mid-stream.
	c1, err := Dial(srv.Addr(), 1, DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ev1, err := c1.SubscribeFiltered(ctx, Cursor{}, flt)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []uint64{3, 6, 9, 12, 15} {
		recv(ev1, r, "replay before disconnect")
	}
	c1.Close()

	// Resume just past the last received block. Rounds 16..25 are served
	// from shared cohort replay (the hub has seen no live delivery yet),
	// then the subscriber is promoted and rounds 26..40 arrive via the ring.
	c2, err := Dial(srv.Addr(), 2, DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	ev2, err := c2.SubscribeFiltered(ctx, Cursor{Worker: 0, Round: 16}, flt)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []uint64{18, 21, 24} {
		recv(ev2, r, "resumed replay")
	}
	for _, blk := range blocks[25:] {
		node.deliver(blk)
	}
	for _, r := range []uint64{27, 30, 33, 36, 39} {
		recv(ev2, r, "live tail")
	}
	// The suffix is exhausted: nothing else may arrive (a non-matching or
	// duplicate block here means the live tier applied the filter
	// differently than replay).
	select {
	case ev := <-ev2:
		t.Fatalf("unexpected trailing event: err=%v round=%d", ev.Err, ev.Block.Signed.Header.Round)
	case <-time.After(200 * time.Millisecond):
	}
}

// TestHubEncodesOncePerBlock pins the tentpole invariant at small scale,
// where it is exact: with every subscriber in the live tier, each delivered
// block is marshaled exactly once however many subscribers receive it.
func TestHubEncodesOncePerBlock(t *testing.T) {
	ks := flcrypto.MustGenerateKeySet(4, flcrypto.Ed25519)
	log, _, err := store.Open(filepath.Join(t.TempDir(), "w0.log"), store.Options{Registry: ks.Registry, Instance: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	node := newFakeNode(t, log)
	srv := NewServer(node, ServerOptions{})
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	const subs, nblocks = 3, 10
	var chans []<-chan BlockEvent
	for i := 0; i < subs; i++ {
		sc, cc := net.Pipe()
		if err := srv.ServeConn(sc); err != nil {
			t.Fatal(err)
		}
		c, err := Attach(cc, uint64(i+1), DialOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		events, err := c.Subscribe(ctx, Cursor{})
		if err != nil {
			t.Fatal(err)
		}
		chans = append(chans, events)
	}
	// Wait for all subscribers to reach the live tier (frontier promotion)
	// so every delivery goes through the shared ring.
	deadline := time.Now().Add(30 * time.Second)
	for {
		if srv.Fanout().LiveSubs == subs {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("subscribers never reached the live tier: %+v", srv.Fanout())
		}
		time.Sleep(time.Millisecond)
	}
	for _, blk := range buildFilterBlocks(t, ks, nblocks) {
		node.deliver(blk)
	}
	for i, events := range chans {
		for want := uint64(1); want <= nblocks; want++ {
			select {
			case ev := <-events:
				if ev.Err != nil || ev.Block.Signed.Header.Round != want {
					t.Fatalf("sub %d: err=%v round=%d want %d", i, ev.Err, ev.Block.Signed.Header.Round, want)
				}
			case <-ctx.Done():
				t.Fatalf("sub %d: timed out at round %d", i, want)
			}
		}
	}
	fs := srv.Fanout()
	if fs.FramesEncoded != nblocks {
		t.Fatalf("FramesEncoded = %d, want exactly %d (encode-once violated)", fs.FramesEncoded, nblocks)
	}
	if fs.FramesShared != subs*nblocks {
		t.Fatalf("FramesShared = %d, want %d", fs.FramesShared, subs*nblocks)
	}
	if fs.BytesSent != uint64(subs)*fs.BytesEncoded {
		t.Fatalf("BytesSent = %d, want %d × BytesEncoded(%d)", fs.BytesSent, subs, fs.BytesEncoded)
	}
}

// TestFanoutSoakStalledSubscriber is the 10k-subscriber soak (scaled down
// under -short): every healthy subscriber receives every block while one
// deliberately stalled subscriber — it never reads its connection — is
// parked and then demoted to a replay cohort, provably unable to delay the
// others (the healthy streams complete while it is stuck; delivery never
// blocks).
func TestFanoutSoakStalledSubscriber(t *testing.T) {
	subs := 10000
	if testing.Short() {
		subs = 500
	}
	const nblocks = 60

	ks := flcrypto.MustGenerateKeySet(4, flcrypto.Ed25519)
	log, _, err := store.Open(filepath.Join(t.TempDir(), "w0.log"), store.Options{Registry: ks.Registry, Instance: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	node := newFakeNode(t, log)
	// A small ring and send queue make the stall observable within 60
	// blocks: the stalled connection's queue fills at 8 frames, and once the
	// ring advances 16 positions past its cursor it must be demoted.
	srv := NewServer(node, ServerOptions{SendQueueCap: 8})
	defer srv.Close()
	srv.hub.mu.Lock()
	srv.hub.ringCap = 16
	srv.hub.mu.Unlock()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()

	// The stalled subscriber: raw wire handshake + SUBSCRIBE, then it never
	// reads again. Its server-side write loop blocks on the synchronous
	// pipe; its send queue fills; the hub must park and demote it without
	// anyone else noticing.
	stalledSrv, stalledCli := net.Pipe()
	if err := srv.ServeConn(stalledSrv); err != nil {
		t.Fatal(err)
	}
	go func() {
		stalledCli.Write(marshalHello(helloMsg{Magic: Magic, Version: Version, ClientID: 1}))
		readFrame(stalledCli) // WELCOME — then stop draining forever
		stalledCli.Write(marshalSubscribe(Cursor{}, Filter{}))
	}()

	// Healthy subscribers, attached from a bounded pool of dialers.
	var (
		wg       sync.WaitGroup
		received atomic.Uint64
		failures atomic.Uint64
		firstErr atomic.Value
	)
	// sem bounds concurrent handshakes, not subscriber lifetimes: it is
	// released once the subscription is established, while the subscriber
	// goroutine lives on consuming its stream.
	sem := make(chan struct{}, 64)
	for i := 0; i < subs; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(id uint64) {
			defer wg.Done()
			attached := false
			release := func() {
				if !attached {
					attached = true
					<-sem
				}
			}
			defer release()
			fail := func(err error) {
				failures.Add(1)
				firstErr.CompareAndSwap(nil, err)
			}
			sc, cc := net.Pipe()
			if err := srv.ServeConn(sc); err != nil {
				fail(err)
				return
			}
			c, err := Attach(cc, id, DialOptions{Timeout: 2 * time.Minute, SubscribeBuffer: 4})
			if err != nil {
				fail(err)
				return
			}
			defer c.Close()
			events, err := c.Subscribe(ctx, Cursor{})
			if err != nil {
				fail(err)
				return
			}
			release()
			for want := uint64(1); want <= nblocks; want++ {
				select {
				case ev := <-events:
					if ev.Err != nil || ev.Block.Signed.Header.Round != want {
						fail(fmt.Errorf("sub %d: err=%v round=%d want %d", id, ev.Err, ev.Block.Signed.Header.Round, want))
						return
					}
					received.Add(1)
				case <-ctx.Done():
					fail(fmt.Errorf("sub %d: timed out at round %d", id, want))
					return
				}
			}
			// Subscriber ids start far above the tx client ids that
			// buildFilterBlocks embeds (900/901): a block's COMMIT receipt is
			// routed to the session registered under its tx's client id, and a
			// collision would spray receipt frames into a subscriber's already
			// full send queue until the overflow kill switch fires.
		}(uint64(i + 1_000_000))
	}

	// Drive blocks while subscribers are still attaching: late subscribers
	// catch up through cohort replay or the ring, early ones ride the live
	// tier — both paths under one sustained delivery load.
	blocks := buildFilterBlocks(t, ks, nblocks)
	for i, blk := range blocks {
		node.deliver(blk)
		if i%4 == 0 {
			time.Sleep(time.Millisecond)
		}
	}
	wg.Wait()
	if n := failures.Load(); n > 0 {
		t.Fatalf("%d healthy subscribers failed; first: %v", n, firstErr.Load())
	}
	if got, want := received.Load(), uint64(subs)*nblocks; got != want {
		t.Fatalf("received %d block events, want %d", got, want)
	}
	fs := srv.Fanout()
	if fs.Demotions == 0 {
		t.Fatalf("stalled subscriber was never demoted to a cohort: %+v", fs)
	}
	if fs.OverflowDisconnects != 0 {
		t.Fatalf("a session hit the control-overflow kill switch: %+v", fs)
	}
	// The sharing ratio at scale: frames encoded must stay within a small
	// multiple of the block count (cohort sweeps may re-encode a block the
	// ring already dropped), not scale with subscribers.
	if fs.FramesEncoded > 8*nblocks {
		t.Fatalf("FramesEncoded = %d for %d blocks: encoding scales with subscribers", fs.FramesEncoded, nblocks)
	}
	if fs.FramesShared < uint64(subs)*nblocks {
		t.Fatalf("FramesShared = %d, want >= %d", fs.FramesShared, uint64(subs)*nblocks)
	}
	t.Logf("fanout soak: subs=%d blocks=%d encoded=%d shared=%d demotions=%d promotions=%d cohortReplays=%d",
		subs, nblocks, fs.FramesEncoded, fs.FramesShared, fs.Demotions, fs.Promotions, fs.CohortReplays)
}

// refusingSink refuses every block, reporting whether its subscriber was
// already marked parked when it refused.
type refusingSink struct {
	sub     *hubSub
	refused chan bool
}

func (s *refusingSink) TrySend(*hubFrame) bool {
	select {
	case s.refused <- s.sub.parked.Load():
	default:
	}
	return false
}

func (s *refusingSink) End(error) {}

// TestHubParksBeforeOffer: a sink may drain (and call Unpark) the moment it
// has refused a block, so the subscriber must already be marked parked by
// then; otherwise that Unpark is lost and the stream stalls for good.
func TestHubParksBeforeOffer(t *testing.T) {
	ks := flcrypto.MustGenerateKeySet(4, flcrypto.Ed25519)
	log, _, err := store.Open(filepath.Join(t.TempDir(), "w0.log"), store.Options{Registry: ks.Registry, Instance: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	node := newFakeNode(t, log)
	hub := NewHub(node, nil)
	defer hub.Close()
	sink := &refusingSink{refused: make(chan bool, 1)}
	sink.sub, err = hub.Subscribe(Cursor{}, Filter{}, sink)
	if err != nil {
		t.Fatal(err)
	}
	node.deliver(buildChainBlocks(t, ks, 1)[0])
	select {
	case parked := <-sink.refused:
		if !parked {
			t.Fatal("the sink refused a block before its subscriber was marked parked")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("the block was never offered")
	}
}
