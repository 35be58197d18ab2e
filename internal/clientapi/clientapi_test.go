package clientapi

import (
	"context"
	"encoding/binary"
	"net"
	"os"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/flcrypto"
	"repro/internal/flo"
	"repro/internal/transport"
	"repro/internal/types"
	"repro/internal/workload"
)

// testWorkers mirrors the flo test suite: ω defaults to 1, FLO_TEST_WORKERS
// overrides it (CI runs the package once at ω=4 under -race).
func testWorkers() int {
	if s := os.Getenv("FLO_TEST_WORKERS"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return 1
}

// flo.Node is the production implementation of the backend interface.
var _ Node = (*flo.Node)(nil)

// blockKey identifies one merged-stream element for sequence comparisons.
type blockKey struct {
	worker uint32
	round  uint64
	hash   flcrypto.Hash
}

// deliveryRecord collects a node's merged definite stream from genesis (it
// is installed as Config.Deliver, so nothing is missed).
type deliveryRecord struct {
	mu   sync.Mutex
	keys []blockKey
}

func (r *deliveryRecord) add(w uint32, blk types.Block) {
	r.mu.Lock()
	r.keys = append(r.keys, blockKey{worker: w, round: blk.Signed.Header.Round, hash: blk.Hash()})
	r.mu.Unlock()
}

func (r *deliveryRecord) snapshot() []blockKey {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]blockKey, len(r.keys))
	copy(out, r.keys)
	return out
}

func (r *deliveryRecord) wait(t *testing.T, n int, timeout time.Duration) []blockKey {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		if got := r.snapshot(); len(got) >= n {
			return got
		}
		if time.Now().After(deadline) {
			t.Fatalf("node delivered %d blocks, want ≥ %d", len(r.snapshot()), n)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// newClusterServer starts a 4-node in-process cluster in client-pool mode
// with a clientapi server fronting node 0, and returns the server's address
// plus node 0's delivery record.
func newClusterServer(t *testing.T, tweak func(i int, cfg *flo.Config)) (addr string, rec *deliveryRecord, node0 *flo.Node) {
	t.Helper()
	const n = 4
	ks := flcrypto.MustGenerateKeySet(n, flcrypto.Ed25519)
	net := transport.NewChanNetwork(transport.ChanConfig{N: n})
	rec = &deliveryRecord{}
	var nodes []*flo.Node
	for i := 0; i < n; i++ {
		cfg := flo.Config{
			Endpoint:     net.Endpoint(flcrypto.NodeID(i)),
			Registry:     ks.Registry,
			Priv:         ks.Privs[i],
			Workers:      testWorkers(),
			BatchSize:    8,
			InitialTimer: 50 * time.Millisecond,
			ViewTimeout:  300 * time.Millisecond,
		}
		if i == 0 {
			cfg.Deliver = rec.add
		}
		if tweak != nil {
			tweak(i, &cfg)
		}
		node, err := flo.NewNode(cfg)
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, node)
	}
	srv := NewServer(nodes[0], ServerOptions{})
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	for _, node := range nodes {
		node.Start()
	}
	t.Cleanup(func() {
		srv.Close()
		for _, node := range nodes {
			node.Stop()
		}
		net.Close()
	})
	return srv.Addr(), rec, nodes[0]
}

func TestRemoteSubmitCommitReceipt(t *testing.T) {
	addr, _, node0 := newClusterServer(t, nil)
	c, err := Dial(addr, 42, DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for i := 0; i < 5; i++ {
		p, err := c.Submit([]byte{byte(i)})
		if err != nil {
			t.Fatal(err)
		}
		receipt, err := p.Wait(ctx)
		if err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		select {
		case <-p.Acked():
		default:
			t.Fatalf("write %d committed without an ack", i)
		}
		// The receipt must point at a real definite block containing the tx.
		blk, ok := node0.Worker(int(receipt.Worker)).Chain().BlockAt(receipt.Round)
		if !ok {
			t.Fatalf("receipt names round %d, which node 0 does not hold", receipt.Round)
		}
		if blk.Hash() != receipt.BlockHash {
			t.Fatalf("receipt hash does not match block at (w%d, r%d)", receipt.Worker, receipt.Round)
		}
		found := false
		for _, tx := range blk.Body.Txs {
			if tx.Client == 42 && tx.Seq == p.Tx.Seq {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("receipt block (w%d, r%d) does not contain the transaction", receipt.Worker, receipt.Round)
		}
	}
	if n := c.InFlight(); n != 0 {
		t.Fatalf("in-flight after all commits = %d", n)
	}
}

// TestRemoteSubscribeMatchesLocalDeliver is the acceptance check: a
// subscriber from cursor zero observes exactly the merged definite stream
// the node's own delivery hook saw.
func TestRemoteSubscribeMatchesLocalDeliver(t *testing.T) {
	addr, rec, _ := newClusterServer(t, nil)
	c, err := Dial(addr, 7, DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	events, err := c.Subscribe(ctx, Cursor{})
	if err != nil {
		t.Fatal(err)
	}
	const want = 25
	var got []blockKey
	for len(got) < want {
		select {
		case ev, ok := <-events:
			if !ok || ev.Err != nil {
				t.Fatalf("stream ended after %d blocks: %v", len(got), ev.Err)
			}
			got = append(got, blockKey{worker: ev.Worker, round: ev.Block.Signed.Header.Round, hash: ev.Block.Hash()})
		case <-ctx.Done():
			t.Fatalf("timed out after %d blocks", len(got))
		}
	}
	local := rec.wait(t, want, 30*time.Second)
	for i := 0; i < want; i++ {
		if got[i] != local[i] {
			t.Fatalf("stream diverges at %d: remote %+v, local %+v", i, got[i], local[i])
		}
	}
}

// TestRemoteReconnectResumesAtCursor: a session that drops and redials with
// the cursor just past its last block observes the continuation of the same
// stream — no gaps, no duplicates — across the reconnect.
func TestRemoteReconnectResumesAtCursor(t *testing.T) {
	addr, rec, _ := newClusterServer(t, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	c1, err := Dial(addr, 9, DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	events, err := c1.Subscribe(ctx, Cursor{})
	if err != nil {
		t.Fatal(err)
	}
	var got []blockKey
	cursor := Cursor{}
	for len(got) < 10 {
		select {
		case ev, ok := <-events:
			if !ok || ev.Err != nil {
				t.Fatalf("first stream ended early: %v", ev.Err)
			}
			got = append(got, blockKey{worker: ev.Worker, round: ev.Block.Signed.Header.Round, hash: ev.Block.Hash()})
			cursor = Cursor{Worker: ev.Worker, Round: ev.Block.Signed.Header.Round}.Next(c1.Workers())
		case <-ctx.Done():
			t.Fatal("timed out on first stream")
		}
	}
	c1.Close()

	// Let the cluster move on while we are away, then resume. The redial
	// retries briefly: the id is released when the server notices the
	// disconnect, which races a fast reconnect.
	rec.wait(t, len(got)+8, 60*time.Second)
	var c2 *Client
	for deadline := time.Now().Add(10 * time.Second); ; {
		c2, err = Dial(addr, 9, DialOptions{}) // same identity: released by Close
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("redial with released id: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	defer c2.Close()
	events2, err := c2.Subscribe(ctx, cursor)
	if err != nil {
		t.Fatal(err)
	}
	for len(got) < 25 {
		select {
		case ev, ok := <-events2:
			if !ok || ev.Err != nil {
				t.Fatalf("resumed stream ended early: %v", ev.Err)
			}
			got = append(got, blockKey{worker: ev.Worker, round: ev.Block.Signed.Header.Round, hash: ev.Block.Hash()})
		case <-ctx.Done():
			t.Fatal("timed out on resumed stream")
		}
	}
	local := rec.wait(t, 25, 30*time.Second)
	for i := 0; i < 25; i++ {
		if got[i] != local[i] {
			t.Fatalf("reconnected stream diverges at %d: remote %+v, local %+v", i, got[i], local[i])
		}
	}
}

func TestRemoteDuplicateClientIDRefused(t *testing.T) {
	addr, _, _ := newClusterServer(t, nil)
	c1, err := Dial(addr, 5, DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Dial(addr, 5, DialOptions{}); err == nil {
		t.Fatal("second session with a live client id was accepted")
	}
	if _, err := Dial(addr, flo.SystemClientID, DialOptions{}); err == nil {
		t.Fatal("reserved conviction identity was accepted")
	}
	c1.Close()
	// The id is released on close; a reconnect must succeed.
	deadline := time.Now().Add(10 * time.Second)
	for {
		c2, err := Dial(addr, 5, DialOptions{})
		if err == nil {
			c2.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("redial after close never succeeded: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestVersionMismatchRefused pins the exact-match handshake on the packed
// major.minor version word: a client differing in only the minor half is
// refused exactly like one differing in the major half.
func TestVersionMismatchRefused(t *testing.T) {
	addr, _, _ := newClusterServer(t, nil)
	for _, tc := range []struct {
		name    string
		version uint32
	}{
		{"minor-bump", VersionMajor<<16 | (VersionMinor + 1)},
		{"major-bump", (VersionMajor + 1) << 16},
		{"legacy-1.2", VersionMajor<<16 | 2}, // pre-filter protocol: SUBSCRIBE carries no filter clause
		{"legacy-1.1", VersionMajor<<16 | 1}, // pre-state-reads protocol: no GET/SCAN/WATCH frames
		{"legacy-1.0", VersionMajor << 16},
	} {
		t.Run(tc.name, func(t *testing.T) {
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if _, err := conn.Write(marshalHello(helloMsg{Magic: Magic, Version: tc.version, ClientID: 1})); err != nil {
				t.Fatal(err)
			}
			conn.SetReadDeadline(time.Now().Add(10 * time.Second))
			kind, payload, err := readFrame(conn)
			if err != nil {
				t.Fatal(err)
			}
			if kind != kindWelcome {
				t.Fatalf("got frame kind %d, want WELCOME", kind)
			}
			welcome, err := decodeWelcome(payload)
			if err != nil {
				t.Fatal(err)
			}
			if welcome.Err == "" {
				t.Fatalf("protocol version %#x was accepted", tc.version)
			}
			if welcome.Version != Version {
				t.Fatalf("refusal advertises version %#x, want %#x (for client-side diagnostics)", welcome.Version, Version)
			}
		})
	}
}

// TestInfoReplyRoundTrip covers the 1.1 INFO_REPLY layout, PoolPending
// included.
func TestInfoReplyRoundTrip(t *testing.T) {
	want := Info{Node: 2, N: 4, Workers: 8, DeliveredBlocks: 123, DeliveredTxs: 4567, PoolPending: 42}
	wire := marshalInfoReply(want)
	kind, payload := wire[4], wire[5:]
	if kind != kindInfoReply {
		t.Fatalf("kind = %d", kind)
	}
	got, err := decodeInfoReply(payload)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("round trip: got %+v, want %+v", got, want)
	}
}

func TestRemoteInfo(t *testing.T) {
	addr, _, node0 := newClusterServer(t, nil)
	c, err := Dial(addr, 11, DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Workers() != node0.Workers() {
		t.Fatalf("handshake workers = %d, want %d", c.Workers(), node0.Workers())
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	// Park some writes in the pools so the 1.1 PoolPending field has
	// something to report (client-pool mode: nothing drains until blocks
	// form, but acceptance is synchronous server-side).
	const parked = 5
	for i := 0; i < parked; i++ {
		if _, err := c.Submit([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		info, err := c.Info(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if info.Node != 0 || info.N != 4 || info.Workers != node0.Workers() {
			t.Fatalf("info = %+v", info)
		}
		// The writes may already have drained into definite blocks; either
		// the backlog or the delivered-tx counter must account for them.
		if info.PoolPending > 0 || info.DeliveredTxs > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("submitted writes visible in neither PoolPending nor DeliveredTxs: %+v", info)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRemoteSubmitRejectedOnSaturatedNode: a node running the saturating
// load model has no client pools; the SUBMIT must come back as a rejection
// through the ACK, resolving the pending with an error instead of hanging.
func TestRemoteSubmitRejectedOnSaturatedNode(t *testing.T) {
	addr, _, _ := newClusterServer(t, func(i int, cfg *flo.Config) {
		cfg.Source = workload.Saturating(flcrypto.NodeID(i), 32)
	})
	c, err := Dial(addr, 3, DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := c.SubmitWait(ctx, []byte("x")); err == nil {
		t.Fatal("submit to a saturated node did not surface the rejection")
	}
}

// TestFrameBounds: a length prefix beyond MaxFrame must be rejected before
// any allocation.
func TestFrameBounds(t *testing.T) {
	addr, _, _ := newClusterServer(t, nil)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var lenBuf [4]byte
	binary.BigEndian.PutUint32(lenBuf[:], MaxFrame+1)
	if _, err := conn.Write(lenBuf[:]); err != nil {
		t.Fatal(err)
	}
	// The server must drop the connection rather than wait for 64MiB+.
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	var one [1]byte
	if _, err := conn.Read(one[:]); err == nil {
		t.Fatal("server kept the connection after an oversized frame")
	}
}
