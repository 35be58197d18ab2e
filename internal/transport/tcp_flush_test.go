package transport

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/flcrypto"
)

// TestTCPCoalescedFlush checks that a backlog accumulated while the peer is
// unreachable is delivered completely and in order once the peer comes up,
// and that the writer actually coalesces: the whole backlog must leave in
// far fewer vectored flushes than frames.
func TestTCPCoalescedFlush(t *testing.T) {
	ports := make([]string, 2)
	for i := range ports {
		ln, err := newLoopbackListener()
		if err != nil {
			t.Fatal(err)
		}
		ports[i] = ln.Addr().String()
		ln.Close()
	}
	ep0, err := NewTCPEndpoint(TCPConfig{
		ID: 0, Addrs: ports,
		DialTimeout:   100 * time.Millisecond,
		RetryInterval: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ep0.Close()

	// Peer 1 is down: the backlog piles up in the send queue (the writer is
	// parked in dial-retry).
	const k = 300
	for i := 0; i < k; i++ {
		if err := ep0.Send(1, []byte(fmt.Sprintf("%04d", i))); err != nil {
			t.Fatal(err)
		}
	}

	ep1, err := NewTCPEndpoint(TCPConfig{ID: 1, Addrs: ports})
	if err != nil {
		t.Fatal(err)
	}
	defer ep1.Close()

	for i := 0; i < k; i++ {
		msg := recvOne(t, ep1)
		if string(msg.Payload) != fmt.Sprintf("%04d", i) {
			t.Fatalf("message %d: got %q", i, msg.Payload)
		}
	}

	// A flush is recorded after its write returns, so the receiver can drain
	// the last frames before the sender's stat exists: wait for it.
	stats := ep0.FlushStats()
	for deadline := time.Now().Add(5 * time.Second); stats.Items < k; stats = ep0.FlushStats() {
		if time.Now().After(deadline) {
			t.Fatalf("flush stats cover %d frames, want >= %d", stats.Items, k)
		}
		time.Sleep(time.Millisecond)
	}
	if stats.Batches >= k {
		t.Fatalf("%d flushes for %d frames: no coalescing happened", stats.Batches, k)
	}
	if stats.Max < 2 {
		t.Fatalf("largest flush carried %d frames, want a real batch", stats.Max)
	}
}

// TestTCPWriteLoopNoStrandedMessage is the regression test for the
// writer-wake race: a message enqueued between the writer's queue drain and
// its next wake-channel wait must be picked up by the re-check, not sit in
// the queue until a *later* message's wake. The test drives many
// one-message-at-a-time cycles — with the race present, a cycle's message
// can be stranded indefinitely (there is no follow-up traffic to flush it
// out) and the receive below times out.
func TestTCPWriteLoopNoStrandedMessage(t *testing.T) {
	ep0, ep1 := startTCPPair(t, nil)
	defer ep0.Close()
	defer ep1.Close()

	// Warm the connection so each subsequent cycle exercises only the
	// drain/wake handoff.
	if err := ep0.Send(1, []byte("warm")); err != nil {
		t.Fatal(err)
	}
	recvOne(t, ep1)

	for i := 0; i < 500; i++ {
		if err := ep0.Send(1, []byte(fmt.Sprintf("m%04d", i))); err != nil {
			t.Fatal(err)
		}
		select {
		case msg := <-ep1.Recv():
			if string(msg.Payload) != fmt.Sprintf("m%04d", i) {
				t.Fatalf("cycle %d: got %q", i, msg.Payload)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("cycle %d: message stranded in the send queue", i)
		}
	}
}

// TestTCPBroadcastSharesPayload documents the broadcast ownership contract:
// one payload slice is enqueued for every peer without copying, so the
// bytes a peer receives are identical even when the broadcast fans out
// widely — and the sender must not mutate the slice after handing it over.
func TestTCPBroadcastSharesPayload(t *testing.T) {
	ports := make([]string, 3)
	for i := range ports {
		ln, err := newLoopbackListener()
		if err != nil {
			t.Fatal(err)
		}
		ports[i] = ln.Addr().String()
		ln.Close()
	}
	eps := make([]*TCPEndpoint, 3)
	for i := range eps {
		ep, err := NewTCPEndpoint(TCPConfig{ID: flcrypto.NodeID(i), Addrs: ports})
		if err != nil {
			t.Fatal(err)
		}
		defer ep.Close()
		eps[i] = ep
	}
	payload := []byte("shared-broadcast-payload")
	if err := eps[0].Broadcast(payload); err != nil {
		t.Fatal(err)
	}
	for i, ep := range eps {
		msg := recvOne(t, ep)
		if msg.From != 0 || string(msg.Payload) != string(payload) {
			t.Fatalf("node %d: got %+v", i, msg)
		}
	}
}
