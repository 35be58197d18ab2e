package flo

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/flcrypto"
	"repro/internal/transport"
	"repro/internal/workload"
)

// TestStopLeaksNoGoroutines is the shutdown regression test: a full
// start/run/stop cycle of a multi-worker cluster must return the process to
// its baseline goroutine count. This guards the whole teardown chain — the
// per-worker rbroadcast services (which were historically never retained or
// stopped), the per-proto transport mailboxes, the PBFT event loop, the
// worker round loops, and the verify pool.
func TestStopLeaksNoGoroutines(t *testing.T) {
	// Settle any goroutines left over from other tests before baselining.
	settled := func() int {
		best := runtime.NumGoroutine()
		for i := 0; i < 50; i++ {
			time.Sleep(10 * time.Millisecond)
			if n := runtime.NumGoroutine(); n <= best {
				best = n
			}
		}
		return best
	}
	before := settled()

	const n = 4
	ks := flcrypto.MustGenerateKeySet(n, flcrypto.Ed25519)
	net := transport.NewChanNetwork(transport.ChanConfig{N: n})
	var nodes []*Node
	for i := 0; i < n; i++ {
		node, err := NewNode(Config{
			Endpoint:     net.Endpoint(flcrypto.NodeID(i)),
			Registry:     ks.Registry,
			Priv:         ks.Privs[i],
			Workers:      3, // multiple workers = multiple rbroadcast services
			BatchSize:    10,
			Source:       workload.Saturating(flcrypto.NodeID(i), 64),
			InitialTimer: 20 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, node)
	}
	for _, node := range nodes {
		node.Start()
	}
	// Let the cluster actually do work so every goroutine family spins up.
	deadline := time.Now().Add(10 * time.Second)
	for nodes[0].Worker(0).Chain().Definite() < 3 {
		if time.Now().After(deadline) {
			t.Fatal("cluster made no progress before shutdown")
		}
		time.Sleep(5 * time.Millisecond)
	}
	for _, node := range nodes {
		node.Stop()
	}
	net.Close()

	// Settle loop: give detached goroutines (timers, draining callbacks)
	// time to exit before declaring a leak.
	var after int
	deadline = time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		after = runtime.NumGoroutine()
		if after <= before+2 { // tolerate runtime/test harness jitter
			return
		}
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	t.Fatalf("goroutines: %d before, %d after stop\n%s", before, after, buf[:runtime.Stack(buf, true)])
}
