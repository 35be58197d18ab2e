package flo

import (
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/flcrypto"
	"repro/internal/store"
	"repro/internal/types"
	"repro/internal/workload"
)

// slowSource delays MarkCommitted, which the commit stage calls between
// Persist and OnDecide: the whole stage of that worker runs late.
type slowSource struct {
	core.TxSource
	delay time.Duration
}

func (s slowSource) MarkCommitted(txs []types.Transaction) {
	time.Sleep(s.delay)
	s.TxSource.MarkCommitted(txs)
}

// TestCommitStageSlowWorkerKeepsMergedOrder: with ω=4 and one worker's
// commit stage artificially slow, node 0's merged stream is still the §6.2
// round-robin order — delivery i is worker i mod ω at round i/ω+1 — while
// the other workers' round loops run ahead of what has been delivered.
func TestCommitStageSlowWorkerKeepsMergedOrder(t *testing.T) {
	const workers, slow, want = 4, 2, 400
	var mu sync.Mutex
	var order []mergedRec
	c := newCluster(t, 4, func(i int, cfg *Config) {
		cfg.Workers = workers
		if i != 0 {
			return
		}
		base := workload.Saturating(flcrypto.NodeID(i), 64)
		cfg.Source = func(w uint32) core.TxSource {
			if w == slow {
				return slowSource{base(w), 20 * time.Millisecond}
			}
			return base(w)
		}
		cfg.Deliver = func(w uint32, blk types.Block) {
			mu.Lock()
			order = append(order, mergedRec{w, blk.Signed.Header.Round})
			mu.Unlock()
		}
	})
	deadline := time.Now().Add(60 * time.Second)
	ranAhead := false
	for c.nodes[0].DeliveredBlocks() < want {
		if time.Now().After(deadline) {
			t.Fatalf("only %d merged deliveries", c.nodes[0].DeliveredBlocks())
		}
		// A fast worker's definite round, read first, against a later read of
		// the merged stream's round: ahead means its loop did not wait.
		fast := c.nodes[0].Worker(0).Chain().Definite()
		if fast > c.nodes[0].DeliveredBlocks()/workers+8 {
			ranAhead = true
		}
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	for i, rec := range order {
		if rec.w != uint32(i%workers) || rec.round != uint64(i/workers)+1 {
			t.Fatalf("delivery %d is worker %d round %d: merged order violated", i, rec.w, rec.round)
		}
	}
	if !ranAhead {
		t.Fatal("no fast worker ever ran ahead of the merged stream: the slow commit stage held the round loops")
	}
}

// blockingDeliver is a Config.Deliver hook that lets `free` deliveries
// through and then blocks until released, recording the rounds it saw.
type blockingDeliver struct {
	free    int
	release chan struct{}
	blocked chan struct{} // closed when the hook first blocks

	mu     sync.Mutex
	rounds []uint64
}

func newBlockingDeliver(free int) *blockingDeliver {
	return &blockingDeliver{free: free, release: make(chan struct{}), blocked: make(chan struct{})}
}

func (b *blockingDeliver) deliver(_ uint32, blk types.Block) {
	b.mu.Lock()
	b.rounds = append(b.rounds, blk.Signed.Header.Round)
	n := len(b.rounds)
	b.mu.Unlock()
	if n == b.free+1 {
		close(b.blocked)
	}
	if n > b.free {
		<-b.release
	}
}

// TestCommitStageBackpressureIsBounded: while node 0's Deliver hook blocks,
// its round loop keeps deciding — the two queues absorb the decisions — and
// then stops: what is decided and undelivered never exceeds the bound. When
// the hook returns the node goes on, and its merged stream has no gap.
func TestCommitStageBackpressureIsBounded(t *testing.T) {
	hook := newBlockingDeliver(5)
	c := newCluster(t, 4, func(i int, cfg *Config) {
		cfg.Workers = 1
		if i == 0 {
			cfg.Deliver = hook.deliver
		}
	})
	node := c.nodes[0]
	<-hook.blocked
	delivered := node.DeliveredBlocks() // counts the delivery that is blocked
	// One block each may sit in the commit stage's hand and in the round
	// loop's; a catch-up adoption finalizes several rounds in one step.
	const slack = 8
	bound := delivered + mergeDepth + core.CommitDepth + slack
	c.waitDefinite([]int{0}, 0, delivered+mergeDepth+core.CommitDepth, 60*time.Second)
	// The rest of the cluster goes on without node 0; node 0 must not.
	c.waitDefinite([]int{1, 2, 3}, 0, bound+100, 60*time.Second)
	if got := node.Worker(0).Chain().Definite(); got > bound {
		t.Fatalf("node 0 decided through round %d with delivery blocked at %d: more than the bound of %d undelivered",
			got, delivered, mergeDepth+core.CommitDepth+slack)
	}
	close(hook.release)
	deadline := time.Now().Add(60 * time.Second)
	for node.DeliveredBlocks() < bound+100 {
		if time.Now().After(deadline) {
			t.Fatalf("node 0 did not resume: %d delivered", node.DeliveredBlocks())
		}
		time.Sleep(5 * time.Millisecond)
	}
	hook.mu.Lock()
	defer hook.mu.Unlock()
	for i, r := range hook.rounds {
		if r != uint64(i)+1 {
			t.Fatalf("delivery %d is round %d: the merged stream has a gap", i, r)
		}
	}
}

// TestCommitStageStopPersistsEverything: Stop with delivery blocked and
// blocks queued in both stages returns once the hook does, and by then —
// in fact before the hook returns — every block the round loop decided is in
// the log.
func TestCommitStageStopPersistsEverything(t *testing.T) {
	hook := newBlockingDeliver(5)
	dir := t.TempDir()
	c := newCluster(t, 4, func(i int, cfg *Config) {
		cfg.Workers = 1
		if i == 0 {
			cfg.Deliver = hook.deliver
			cfg.DataDir = dir
		}
	})
	node := c.nodes[0]
	<-hook.blocked
	c.waitDefinite([]int{0}, 0, node.DeliveredBlocks()+50, 60*time.Second)

	stopped := make(chan struct{})
	go func() {
		node.Stop()
		close(stopped)
	}()
	// The round loop stops first, so the definite round settles; the commit
	// stage must bring the log up to it with the hook still blocked.
	deadline := time.Now().Add(30 * time.Second)
	for {
		definite := node.Worker(0).Chain().Definite()
		if tip := node.logs[0].Tip(); tip == definite && definite == node.Worker(0).Chain().Definite() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("log tip %d, definite %d: Stop left decided blocks unpersisted while delivery was blocked",
				node.logs[0].Tip(), node.Worker(0).Chain().Definite())
		}
		time.Sleep(5 * time.Millisecond)
	}
	select {
	case <-stopped:
		t.Fatal("Stop returned while the Deliver hook was still running")
	default:
	}
	close(hook.release)
	select {
	case <-stopped:
	case <-time.After(30 * time.Second):
		t.Fatal("Stop did not return after the Deliver hook did")
	}
	definite := node.Worker(0).Chain().Definite()
	log, _, replayed, err := store.OpenWorker(filepath.Join(dir, "w0.log"), filepath.Join(dir, "w0.snap"),
		store.Options{Registry: c.ks.Registry, Instance: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	if uint64(len(replayed)) != definite {
		t.Fatalf("the log replays %d blocks, the round loop decided %d", len(replayed), definite)
	}
}
