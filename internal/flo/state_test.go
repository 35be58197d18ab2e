package flo

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/flcrypto"
	"repro/internal/statemachine"
	"repro/internal/transport"
	"repro/internal/workload"
)

// runManagedStateRestore runs the full checkpoint loop at a given ω: every
// node applies the merged stream to its Config.State replica, whose snapshot
// rides in the worker checkpoints (capture at the merge point); the whole
// cluster is stopped and rebooted from disk; the restored replicas
// (checkpoint + replayed-suffix re-delivery + live deliveries) must converge
// to identical state at identical positions — i.e. compaction loses no
// transactions and double-applies none, and at ω>1 the merged stream resumes
// gap-free across every worker. Half the cluster runs the map backend, half
// the durable one — at equal positions their replica snapshots must be
// byte-identical, which is exactly what lets a checkpoint written by one
// backend restore into the other.
func runManagedStateRestore(t *testing.T, workers int) {
	const n = 4
	ks := flcrypto.MustGenerateKeySet(n, flcrypto.Ed25519)
	dirs := make([]string, n)
	for i := range dirs {
		dirs[i] = filepath.Join(t.TempDir(), fmt.Sprintf("node%d", i))
	}
	openBackend := func(i int) statemachine.StateBackend {
		if i < n/2 {
			return statemachine.NewKV()
		}
		d, err := statemachine.OpenDurable(filepath.Join(dirs[i], "state"))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { d.Close() })
		return d
	}

	type world struct {
		nodes []*Node
		net   *transport.ChanNetwork
	}
	boot := func() *world {
		w := &world{net: transport.NewChanNetwork(transport.ChanConfig{N: n})}
		for i := 0; i < n; i++ {
			node, err := NewNode(Config{
				Endpoint:      w.net.Endpoint(flcrypto.NodeID(i)),
				Registry:      ks.Registry,
				Priv:          ks.Privs[i],
				Workers:       workers,
				BatchSize:     4,
				Source:        workload.Saturating(flcrypto.NodeID(i), 32),
				DataDir:       dirs[i],
				SnapshotEvery: 5,
				CatchUpBatch:  8,
				InitialTimer:  40 * time.Millisecond,
				State:         openBackend(i),
			})
			if err != nil {
				t.Fatal(err)
			}
			w.nodes = append(w.nodes, node)
		}
		for _, node := range w.nodes {
			node.Start()
		}
		return w
	}
	stop := func(w *world) {
		for _, node := range w.nodes {
			node.Stop()
		}
		w.net.Close()
	}
	waitPos := func(w *world, target uint64) {
		t.Helper()
		deadline := time.Now().Add(90 * time.Second)
		for {
			done := true
			for _, node := range w.nodes {
				for wk := 0; wk < workers; wk++ {
					if node.State().Position(uint32(wk)) < target {
						done = false
						break
					}
				}
				if !done {
					break
				}
			}
			if done {
				return
			}
			if time.Now().After(deadline) {
				var state []string
				for i, node := range w.nodes {
					for wk := 0; wk < workers; wk++ {
						chain, m := node.Worker(wk).Chain(), node.Worker(wk).Metrics()
						state = append(state, fmt.Sprintf("node%d/w%d pos=%d base=%d def=%d tip=%d rreq=%d rblk=%d breq=%d",
							i, wk, node.State().Position(uint32(wk)), chain.Base(), chain.Definite(), chain.Tip(),
							m.CatchUpRangeReqs.Load(), m.CatchUpRangeBlocks.Load(), m.CatchUpBlockReqs.Load()))
					}
				}
				t.Fatalf("managed replicas stalled before position %d: %v", target, state)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	// Session 1: several checkpoint cycles, then a full-cluster reboot.
	w := boot()
	waitPos(w, 17)
	stop(w)

	// Session 2: the node restores its own replica from the checkpoint it
	// captured at the merge point, with no restore callbacks involved.
	w = boot()
	for i, node := range w.nodes {
		if node.State() == nil {
			t.Fatalf("node %d lost its managed replica across restart", i)
		}
		for wk := 0; wk < workers; wk++ {
			if node.Worker(wk).Chain().Base() == 0 {
				t.Fatalf("node %d worker %d rebooted without a snapshot base", i, wk)
			}
		}
	}
	waitPos(w, 24)
	stop(w) // quiesce: all deliveries done once Stop returns

	for i, node := range w.nodes {
		rep := node.State()
		var sum uint64
		for wk := 0; wk < workers; wk++ {
			pos := rep.Position(uint32(wk))
			if pos < 24 {
				t.Fatalf("node %d replica stalled at position %d on worker %d", i, pos, wk)
			}
			sum += pos
		}
		// Every block under the saturating model carries exactly BatchSize
		// transactions; a gap or double-apply across the reboot breaks this.
		if got, want := rep.State().Applied(), 4*sum; got != want {
			t.Fatalf("node %d applied %d txs at summed position %d, want %d", i, got, sum, want)
		}
		// The restored merged cursor kept advancing past the reboot.
		if _, round := rep.Cursor(); round < 17 {
			t.Fatalf("node %d merged cursor stuck at round %d after restart", i, round)
		}
	}
	// Replica snapshots at equal positions are byte-identical across nodes —
	// including across the map/durable backend split.
	samePositions := func(a, b *statemachine.Replica) bool {
		for wk := 0; wk < workers; wk++ {
			if a.Position(uint32(wk)) != b.Position(uint32(wk)) {
				return false
			}
		}
		return true
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			a, b := w.nodes[i].State(), w.nodes[j].State()
			if samePositions(a, b) && !bytes.Equal(a.Snapshot(), b.Snapshot()) {
				t.Fatalf("nodes %d and %d have different snapshots at equal positions", i, j)
			}
		}
	}

	// Reads answer immediately after the restart: a zero token reads the
	// restored state, and a token at the restored frontier is covered.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	node := w.nodes[n-1] // durable-backend node
	if _, err := node.StateScan(ctx, "", "", 10, 0, 0); err != nil {
		t.Fatalf("post-restart scan: %v", err)
	}
	frontier := node.State().Position(0)
	if _, _, err := node.StateGet(ctx, "anything", 0, frontier); err != nil {
		t.Fatalf("read at restored frontier: %v", err)
	}
}

func TestFLOManagedStateRestore(t *testing.T) {
	runManagedStateRestore(t, 1)
}

// TestFLOManagedStateRestoreMultiWorker is the ω=4 variant: one state
// capture anchored at the merged (worker, round) cursor rides in every
// worker's checkpoint, and the reboot resumes the interleaved stream with
// no worker's rounds lost or double-applied.
func TestFLOManagedStateRestoreMultiWorker(t *testing.T) {
	runManagedStateRestore(t, 4)
}

// TestStateReadTokenValidation: a read token naming a worker the node does
// not run is an error, not a hang.
func TestStateReadTokenValidation(t *testing.T) {
	const n = 4
	ks := flcrypto.MustGenerateKeySet(n, flcrypto.Ed25519)
	net := transport.NewChanNetwork(transport.ChanConfig{N: n})
	defer net.Close()
	node, err := NewNode(Config{
		Endpoint: net.Endpoint(0),
		Registry: ks.Registry,
		Priv:     ks.Privs[0],
		Workers:  2,
		State:    statemachine.NewKV(),
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, _, err := node.StateGet(ctx, "k", 7, 1); err == nil {
		t.Fatal("out-of-range token worker accepted")
	}
	// Worker in range at round 0 never errors regardless of ω.
	if _, _, err := node.StateGet(ctx, "k", 7, 0); err != nil {
		t.Fatalf("zero-round token rejected: %v", err)
	}
}
