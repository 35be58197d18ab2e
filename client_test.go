package fireledger

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"
)

// clientCluster builds a 4-node cluster in client-pool mode (no saturating
// load) and returns it started.
func clientCluster(t *testing.T, tweak func(i int, cfg *Config)) *Cluster {
	t.Helper()
	cluster, err := NewLocalCluster(4, func(i int, cfg *Config) {
		cfg.BatchSize = 8
		if tweak != nil {
			tweak(i, cfg)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	cluster.Start()
	t.Cleanup(cluster.Stop)
	return cluster
}

func TestClientSubmitWaitReceipt(t *testing.T) {
	cluster := clientCluster(t, nil)
	client, err := NewClient(cluster.Node(0), 42)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i := 0; i < 5; i++ {
		receipt, err := client.SubmitWait(ctx, []byte(fmt.Sprintf("write-%d", i)))
		if err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		// The receipt must name a real definite block that contains the
		// write and whose hash matches.
		blk, ok := cluster.Node(0).Worker(int(receipt.Worker)).Chain().BlockAt(receipt.Round)
		if !ok {
			t.Fatalf("write %d: receipt names round %d, which the node does not hold", i, receipt.Round)
		}
		if blk.Hash() != receipt.BlockHash {
			t.Fatalf("write %d: receipt hash mismatch at (w%d, r%d)", i, receipt.Worker, receipt.Round)
		}
		found := false
		for _, tx := range blk.Body.Txs {
			if tx.Client == 42 {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("write %d: receipt block has no tx of client 42", i)
		}
	}
	if n := client.InFlight(); n != 0 {
		t.Fatalf("in-flight after all commits = %d", n)
	}
}

func TestClientConcurrentWriters(t *testing.T) {
	cluster := clientCluster(t, nil)
	const writers = 4
	const each = 6
	var wg sync.WaitGroup
	errs := make(chan error, writers*each)
	for w := 0; w < writers; w++ {
		client, err := NewClient(cluster.Node(w%cluster.N()), 100+uint64(w))
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(c *Client, w int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			for i := 0; i < each; i++ {
				if _, err := c.SubmitWait(ctx, []byte(fmt.Sprintf("w%d-%d", w, i))); err != nil {
					errs <- err
					return
				}
			}
		}(client, w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestClientSequencesAreDistinct(t *testing.T) {
	cluster := clientCluster(t, nil)
	client, err := NewClient(cluster.Node(0), 7)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[uint64]bool)
	var ps []*Pending
	for i := 0; i < 10; i++ {
		p, err := client.Submit([]byte("x"))
		if err != nil {
			t.Fatal(err)
		}
		if seen[p.Tx.Seq] {
			t.Fatalf("duplicate seq %d", p.Tx.Seq)
		}
		seen[p.Tx.Seq] = true
		ps = append(ps, p)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for i, p := range ps {
		if _, err := p.Wait(ctx); err != nil {
			t.Fatalf("pending %d: %v", i, err)
		}
	}
}

func TestClientRejectsReservedID(t *testing.T) {
	cluster := clientCluster(t, nil)
	if _, err := NewClient(cluster.Node(0), 0xF1_7E_1E_D6_E5_00_00_01); err == nil {
		t.Fatal("reserved system client id accepted")
	}
}

// TestClientDuplicateIDRejected: a client identity is an exclusive claim on
// its node — a second registration must fail (it would otherwise resolve
// the first session's sequence numbers), and Close must release it.
func TestClientDuplicateIDRejected(t *testing.T) {
	cluster := clientCluster(t, nil)
	c1, err := NewClient(cluster.Node(0), 77)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewClient(cluster.Node(0), 77); err == nil {
		t.Fatal("duplicate client id accepted on the same node")
	}
	// The same id on a different node is a distinct claim.
	other, err := NewClient(cluster.Node(1), 77)
	if err != nil {
		t.Fatalf("same id on another node refused: %v", err)
	}
	other.Close()
	if err := c1.Close(); err != nil {
		t.Fatal(err)
	}
	c3, err := NewClient(cluster.Node(0), 77)
	if err != nil {
		t.Fatalf("id not released by Close: %v", err)
	}
	c3.Close()
}

func TestClientWaitHonorsContext(t *testing.T) {
	// A node that cannot make progress alone: submit and expect the wait to
	// end with the context, not hang.
	cluster, err := NewLocalCluster(4, func(i int, cfg *Config) { cfg.BatchSize = 8 })
	if err != nil {
		t.Fatal(err)
	}
	// Only node 0 started: no quorum, nothing ever commits.
	cluster.Node(0).Start()
	t.Cleanup(cluster.Stop)
	client, err := NewClient(cluster.Node(0), 9)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	if _, err := client.SubmitWait(ctx, []byte("never")); err == nil {
		t.Fatal("wait returned success without quorum")
	}
	if client.InFlight() != 1 {
		t.Fatalf("in-flight = %d, want 1 (uncommitted)", client.InFlight())
	}
}

// TestClientBlocksStream: the in-process session's Blocks stream from the
// genesis cursor reproduces the node's own merged delivery exactly.
func TestClientBlocksStream(t *testing.T) {
	type key struct {
		worker uint32
		round  uint64
		hash   Hash
	}
	const want = 20
	var mu sync.Mutex
	var local []key
	delivered := make(chan struct{}) // closed at node 0's want-th delivery
	cluster := clientCluster(t, func(i int, cfg *Config) {
		if i == 0 {
			cfg.Workers = 2 // exercise merged-order cursor arithmetic
			cfg.Deliver = func(w uint32, blk Block) {
				mu.Lock()
				local = append(local, key{w, blk.Signed.Header.Round, blk.Hash()})
				if len(local) == want {
					close(delivered)
				}
				mu.Unlock()
			}
		} else {
			cfg.Workers = 2
		}
	})
	client, err := NewClient(cluster.Node(0), 12)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	events, err := client.Blocks(ctx, Cursor{})
	if err != nil {
		t.Fatal(err)
	}
	var got []key
	for len(got) < want {
		select {
		case ev, ok := <-events:
			if !ok || ev.Err != nil {
				t.Fatalf("stream ended after %d: %v", len(got), ev.Err)
			}
			got = append(got, key{ev.Worker, ev.Block.Signed.Header.Round, ev.Block.Hash()})
		case <-ctx.Done():
			t.Fatalf("timed out after %d blocks", len(got))
		}
	}
	select {
	case <-delivered:
	case <-ctx.Done():
		mu.Lock()
		defer mu.Unlock()
		t.Fatalf("node delivered only %d blocks", len(local))
	}
	mu.Lock()
	defer mu.Unlock()
	for i := 0; i < want; i++ {
		if got[i] != local[i] {
			t.Fatalf("stream diverges at %d: session %+v, node %+v", i, got[i], local[i])
		}
	}
}
