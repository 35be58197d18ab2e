package fireledger

import (
	"context"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clientapi"
	"repro/internal/flcrypto"
	"repro/internal/transport"
)

// TestRemoteSessionEndToEnd is the cmd/fireledger + cmd/flclient deployment
// path as an integration test: a 4-node FLO cluster over real loopback TCP
// sockets, the clientapi server fronting node 0, and remote Sessions dialed
// through the public fireledger.Dial. It asserts the acceptance contract of
// the client API redesign:
//
//   - every submit is acked, and every write yields a commit receipt that
//     names a real definite block containing the transaction;
//   - every one of 256 subscribers started at cursor zero observes the
//     identical merged definite stream the node's own delivery hook saw —
//     same blocks, same order, no gaps, no duplicates. Half attach at once
//     and ride the hub's ring; half attach after the ring has moved past
//     position zero, so they start in a replay cohort and are handed to the
//     live tier while blocks keep coming. No stream may die.
func TestRemoteSessionEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("opens real sockets")
	}
	const n = 4
	// Both ends of every session are in this process: 2×256 descriptors fit
	// the default limit of 1024.
	const subscribers = 256
	// More blocks than the hub's ring holds (clientapi's hubRingCap, 1024):
	// a cursor-zero subscriber attaching after this many starts in a replay
	// cohort. The CohortReplays check below fails if that stops being true.
	const ringPassed = 1100
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		ln.Close()
	}
	ks, err := flcrypto.GenerateKeySet(n, flcrypto.Ed25519,
		flcrypto.NewDeterministicReader("session-e2e"))
	if err != nil {
		t.Fatal(err)
	}

	type key struct {
		worker uint32
		round  uint64
		hash   Hash
	}
	var mu sync.Mutex
	var local []key

	nodes := make([]*Node, n)
	for i := 0; i < n; i++ {
		ep, err := transport.NewTCPEndpoint(transport.TCPConfig{
			ID:    flcrypto.NodeID(i),
			Addrs: addrs,
		})
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{
			Endpoint:     ep,
			Registry:     ks.Registry,
			Priv:         ks.Privs[i],
			Workers:      1,
			BatchSize:    8,
			InitialTimer: 100 * time.Millisecond,
		}
		if i == 0 {
			cfg.Deliver = func(w uint32, blk Block) {
				mu.Lock()
				local = append(local, key{w, blk.Signed.Header.Round, blk.Hash()})
				mu.Unlock()
			}
		}
		node, err := NewNode(cfg)
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = node
	}
	srv := clientapi.NewServer(nodes[0], clientapi.ServerOptions{})
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	for _, node := range nodes {
		node.Start()
	}
	defer func() {
		srv.Close()
		for _, node := range nodes {
			node.Stop()
		}
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	delivered := func() int {
		mu.Lock()
		defer mu.Unlock()
		return len(local)
	}
	// localAt waits for node 0's own i-th delivery.
	localAt := func(i int) (key, bool) {
		for delivered() <= i {
			select {
			case <-ctx.Done():
				return key{}, false
			case <-time.After(5 * time.Millisecond):
			}
		}
		mu.Lock()
		defer mu.Unlock()
		return local[i], true
	}

	// Each subscriber streams from cursor zero and checks every event
	// against node 0's own delivery at the same index until told to stop.
	var (
		subsWG   sync.WaitGroup
		attached sync.WaitGroup
		verified [subscribers]atomic.Int64
		stop     = make(chan struct{})
		dialSem  = make(chan struct{}, 32) // concurrent dials, not session lifetimes
	)
	subscribe := func(s int) {
		defer subsWG.Done()
		dialSem <- struct{}{}
		sess, err := Dial(srv.Addr(), 1<<32+uint64(s))
		var events <-chan BlockEvent
		if err == nil {
			defer sess.Close()
			events, err = sess.Blocks(ctx, Cursor{})
		}
		<-dialSem
		attached.Done()
		if err != nil {
			t.Errorf("subscriber %d: %v", s, err)
			return
		}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			case ev, ok := <-events:
				if !ok || ev.Err != nil {
					t.Errorf("subscriber %d: stream ended after %d blocks: %v", s, i, ev.Err)
					return
				}
				want, ok := localAt(i)
				if !ok {
					t.Errorf("subscriber %d: node 0 never delivered block %d", s, i)
					return
				}
				if got := (key{ev.Worker, ev.Block.Signed.Header.Round, ev.Block.Hash()}); got != want {
					t.Errorf("subscriber %d: merged stream diverges at %d: remote %+v, local %+v", s, i, got, want)
					return
				}
				verified[s].Store(int64(i + 1))
			}
		}
	}
	attach := func(from, to int) {
		attached.Add(to - from)
		subsWG.Add(to - from)
		for s := from; s < to; s++ {
			go subscribe(s)
		}
	}
	defer func() {
		close(stop)
		subsWG.Wait()
	}()
	// The first half attaches before any write.
	attach(0, subscribers/2)

	// Writer session: every write acked and committed with a receipt
	// pointing at a real definite block that contains it.
	writer, err := Dial(srv.Addr(), 501)
	if err != nil {
		t.Fatal(err)
	}
	defer writer.Close()
	const writes = 10
	const compare = 30 // blocks every subscriber follows past its promotion
	for i := 0; i < writes; i++ {
		p, err := writer.Submit([]byte{byte(i)})
		if err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		select {
		case <-p.Acked():
		case <-ctx.Done():
			t.Fatalf("write %d was never acked", i)
		}
		receipt, err := p.Wait(ctx)
		if err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		blk, ok := nodes[0].Worker(int(receipt.Worker)).Chain().BlockAt(receipt.Round)
		if !ok {
			t.Fatalf("write %d: receipt names unknown round %d", i, receipt.Round)
		}
		if blk.Hash() != receipt.BlockHash {
			t.Fatalf("write %d: receipt hash mismatch", i)
		}
		found := false
		for _, tx := range blk.Body.Txs {
			if tx.Client == 501 && tx.Seq == p.Tx.Seq {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("write %d: receipt block does not contain the transaction", i)
		}
	}

	// The second half attaches once cursor zero has left the ring.
	for delivered() < ringPassed {
		select {
		case <-ctx.Done():
			t.Fatalf("node 0 delivered only %d blocks", delivered())
		case <-time.After(20 * time.Millisecond):
		}
	}
	attach(subscribers/2, subscribers)
	attached.Wait()

	// Every subscriber must leave its replay cohort and then follow the live
	// stream for a while: waitAll returns once each has verified target
	// blocks against node 0's own delivery.
	waitAll := func(target int, what string) {
		for s := 0; s < subscribers; s++ {
			for verified[s].Load() < int64(target) {
				if t.Failed() {
					t.FailNow()
				}
				select {
				case <-ctx.Done():
					t.Fatalf("%s: subscriber %d verified %d of %d blocks", what, s, verified[s].Load(), target)
				case <-time.After(10 * time.Millisecond):
				}
			}
		}
	}
	waitAll(delivered(), "replay")
	for srv.Fanout().CohortSubs > 0 {
		select {
		case <-ctx.Done():
			t.Fatalf("subscribers still in replay cohorts: %+v", srv.Fanout())
		case <-time.After(10 * time.Millisecond):
		}
	}
	waitAll(delivered()+compare, "live")
	st := srv.Fanout()
	t.Logf("%d blocks delivered; hub %+v", delivered(), st)
	if st.CohortReplays == 0 {
		t.Errorf("no subscriber went through a replay cohort: %+v", st)
	}
	if st.OverflowDisconnects != 0 || st.LiveSubs+st.LaggingSubs+st.CohortSubs != subscribers {
		t.Errorf("a subscriber was dropped: %+v", st)
	}
}
