package flo

import (
	"sync"
	"testing"
	"time"

	"repro/internal/types"
)

// mkBlock builds a minimal block tagged with (worker, round) for merger
// ordering checks; the merger never inspects signatures.
func mkBlock(worker uint32, round uint64) types.Block {
	return types.Block{Signed: types.SignedHeader{
		Header: types.BlockHeader{Instance: worker, Round: round},
	}}
}

type mergedRec struct {
	w     uint32
	round uint64
}

// mergeLog records a merger's deliveries.
type mergeLog struct {
	mu  sync.Mutex
	out []mergedRec
}

func (l *mergeLog) deliver(w uint32, blk types.Block) {
	l.mu.Lock()
	l.out = append(l.out, mergedRec{w, blk.Signed.Header.Round})
	l.mu.Unlock()
}

func (l *mergeLog) snapshot() []mergedRec {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]mergedRec(nil), l.out...)
}

// startMerger runs a merger until the test ends.
func startMerger(t *testing.T, workers int, deliver func(uint32, types.Block)) *merger {
	t.Helper()
	m := newMerger(workers, deliver)
	m.start()
	t.Cleanup(m.stop)
	return m
}

// waitDelivered blocks until the merger has delivered n blocks.
func waitDelivered(t *testing.T, m *merger, n uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for m.delivered.Load() < n {
		if time.Now().After(deadline) {
			t.Fatalf("delivered %d blocks, waiting for %d", m.delivered.Load(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

func expectMerged(t *testing.T, got, want []mergedRec) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("delivered %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("delivered %v, want %v", got, want)
		}
	}
}

func TestMergerRoundRobinOrder(t *testing.T) {
	var log mergeLog
	m := startMerger(t, 3, log.deliver)
	// Worker 1 races ahead; nothing is delivered until worker 0 produces,
	// then the round-robin interleaves strictly.
	m.enqueue(1)(mkBlock(1, 1))
	m.enqueue(1)(mkBlock(1, 2))
	m.enqueue(2)(mkBlock(2, 1))
	time.Sleep(20 * time.Millisecond)
	if got := log.snapshot(); len(got) != 0 {
		t.Fatalf("delivered before worker 0 produced: %v", got)
	}
	m.enqueue(0)(mkBlock(0, 1))
	// Now 0:1, 1:1, 2:1 flush, then the cursor waits at worker 0 again.
	want := []mergedRec{{0, 1}, {1, 1}, {2, 1}}
	waitDelivered(t, m, 3)
	expectMerged(t, log.snapshot(), want)
	m.enqueue(0)(mkBlock(0, 2))
	m.enqueue(2)(mkBlock(2, 2))
	// 0:2 then 1:2 (queued earlier) then 2:2.
	want = append(want, mergedRec{0, 2}, mergedRec{1, 2}, mergedRec{2, 2})
	waitDelivered(t, m, 6)
	expectMerged(t, log.snapshot(), want)
}

func TestMergerCountsTxs(t *testing.T) {
	m := startMerger(t, 1, func(uint32, types.Block) {})
	blk := mkBlock(0, 1)
	blk.Body.Txs = make([]types.Transaction, 7)
	m.enqueue(0)(blk)
	waitDelivered(t, m, 1)
	if m.txs.Load() != 7 {
		t.Fatalf("txs = %d", m.txs.Load())
	}
}

// TestMergerGlobalOrderWithSlowWorker: four commit stages feed the merger
// concurrently and one of them is slow (a Persist that takes a while before
// every OnDecide). Every observer-visible prefix must be the strict
// round-robin sequence, the fast workers must have been able to run ahead
// meanwhile, and the merged cursor must end at every worker's tip.
func TestMergerGlobalOrderWithSlowWorker(t *testing.T) {
	const (
		workers = 4
		rounds  = 200
		slow    = 2
	)
	var log mergeLog
	m := startMerger(t, workers, log.deliver)
	var wg sync.WaitGroup
	fastDone := make(chan struct{}, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		enq := m.enqueue(uint32(w))
		go func(w uint32) {
			defer wg.Done()
			for r := uint64(1); r <= rounds; r++ {
				if w == slow {
					time.Sleep(200 * time.Microsecond)
				}
				enq(mkBlock(w, r))
			}
			if w != slow {
				fastDone <- struct{}{}
			}
		}(uint32(w))
	}
	// rounds < mergeDepth: the fast workers finish without waiting for the
	// slow one.
	for i := 0; i < workers-1; i++ {
		select {
		case <-fastDone:
		case <-time.After(10 * time.Second):
			t.Fatal("a fast worker waited for the slow one below the queue bound")
		}
	}
	wg.Wait()
	waitDelivered(t, m, workers*rounds)
	for i, rec := range log.snapshot() {
		if rec.w != uint32(i%workers) || rec.round != uint64(i/workers)+1 {
			t.Fatalf("delivery %d is worker %d round %d: merged order violated", i, rec.w, rec.round)
		}
	}
	m.stop()
	for w := 0; w < workers; w++ {
		if m.lastDelivered[w] != rounds {
			t.Fatalf("worker %d merged cursor at %d, want %d", w, m.lastDelivered[w], rounds)
		}
	}
}

// TestMergerEnqueueBounded: while a delivery blocks, a worker can queue
// mergeDepth blocks behind it and not one more — the queue is the bound, not
// the heap. Shutdown releases the waiting producer, drops what did not fit,
// and delivers what was queued.
func TestMergerEnqueueBounded(t *testing.T) {
	inDeliver := make(chan struct{})
	release := make(chan struct{})
	var log mergeLog
	m := startMerger(t, 1, func(w uint32, blk types.Block) {
		if blk.Signed.Header.Round == 1 {
			close(inDeliver)
			<-release
		}
		log.deliver(w, blk)
	})
	enq := m.enqueue(0)
	enq(mkBlock(0, 1))
	<-inDeliver
	queued := make(chan uint64, mergeDepth+2)
	go func() {
		for r := uint64(2); r <= mergeDepth+3; r++ {
			enq(mkBlock(0, r))
			queued <- r
		}
	}()
	last := uint64(0)
	for last < mergeDepth+1 {
		select {
		case last = <-queued:
		case <-time.After(10 * time.Second):
			t.Fatalf("enqueue stalled at round %d, below the bound", last)
		}
	}
	select {
	case r := <-queued:
		t.Fatalf("round %d was queued beyond the bound of %d", r, mergeDepth)
	case <-time.After(50 * time.Millisecond):
	}
	m.unblock()
	for last < mergeDepth+3 {
		select {
		case last = <-queued:
		case <-time.After(10 * time.Second):
			t.Fatal("enqueue still waiting for room after unblock")
		}
	}
	close(release)
	m.stop()
	got := log.snapshot()
	if len(got) != mergeDepth+1 {
		t.Fatalf("delivered %d blocks, want the %d that fit", len(got), mergeDepth+1)
	}
	for i, rec := range got {
		if rec.round != uint64(i)+1 {
			t.Fatalf("delivery %d is round %d: not a prefix", i, rec.round)
		}
	}
}

// TestMergerAdvanceBaseDuringBlockedDelivery: a snapshot install that lands
// while a delivery is in progress waits for it, and once advanceBase has
// returned no block at or below the installed base is emitted — neither one
// still queued nor one that arrives later.
func TestMergerAdvanceBaseDuringBlockedDelivery(t *testing.T) {
	inDeliver := make(chan struct{})
	release := make(chan struct{})
	var log mergeLog
	m := startMerger(t, 1, func(w uint32, blk types.Block) {
		if blk.Signed.Header.Round == 1 {
			close(inDeliver)
			<-release
		}
		log.deliver(w, blk)
	})
	enq := m.enqueue(0)
	enq(mkBlock(0, 1))
	<-inDeliver
	enq(mkBlock(0, 2))
	enq(mkBlock(0, 3))
	fenced := make(chan struct{})
	go func() {
		m.advanceBase(0, 5)
		close(fenced)
	}()
	select {
	case <-fenced:
		t.Fatal("advanceBase returned while a pre-install delivery was still in progress")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	<-fenced
	before := log.snapshot() // round 1, and whichever of 2 and 3 won the lock from the install
	enq(mkBlock(0, 4))       // a straggler still in the worker's pipeline at install time
	enq(mkBlock(0, 6))
	waitDelivered(t, m, uint64(len(before))+1)
	m.stop()
	expectMerged(t, log.snapshot(), append(before, mergedRec{0, 6}))
	if m.lastDelivered[0] != 6 {
		t.Fatalf("merged cursor at %d, want 6", m.lastDelivered[0])
	}
}

// TestMergerStopDeliversReadyPrefix: stop delivers every queued block that
// is next in the merged order and leaves the rest.
func TestMergerStopDeliversReadyPrefix(t *testing.T) {
	var log mergeLog
	m := newMerger(2, log.deliver)
	for r := uint64(1); r <= 3; r++ {
		m.enqueue(0)(mkBlock(0, r))
	}
	m.enqueue(1)(mkBlock(1, 1))
	m.start()
	m.stop()
	// 0:1, 1:1, 0:2, then worker 1 has nothing: 0:3 stays queued.
	expectMerged(t, log.snapshot(), []mergedRec{{0, 1}, {1, 1}, {0, 2}})
}
