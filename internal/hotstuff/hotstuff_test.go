package hotstuff

import (
	"sync"
	"testing"
	"time"

	"repro/internal/flcrypto"
	"repro/internal/transport"
	"repro/internal/workload"
)

const testProto transport.ProtoID = 30

type cluster struct {
	t        *testing.T
	net      *transport.ChanNetwork
	muxes    []*transport.Mux
	replicas []*Replica

	mu   sync.Mutex
	logs [][]flcrypto.Hash // committed block hashes per replica
}

func newCluster(t *testing.T, n int, batch int) *cluster {
	t.Helper()
	ks := flcrypto.MustGenerateKeySet(n, flcrypto.Ed25519)
	c := &cluster{
		t:    t,
		net:  transport.NewChanNetwork(transport.ChanConfig{N: n}),
		logs: make([][]flcrypto.Hash, n),
	}
	for i := 0; i < n; i++ {
		i := i
		mux := transport.NewMux(c.net.Endpoint(flcrypto.NodeID(i)))
		r := NewReplica(Config{
			Mux:         mux,
			Proto:       testProto,
			Registry:    ks.Registry,
			Priv:        ks.Privs[i],
			Pool:        workload.NewSaturatingSource(64, uint64(i), int64(i)),
			BatchSize:   batch,
			ViewTimeout: 250 * time.Millisecond,
			Tick:        10 * time.Millisecond,
			Deliver: func(blk *Block) {
				h := blk.Hash()
				c.mu.Lock()
				c.logs[i] = append(c.logs[i], h)
				c.mu.Unlock()
			},
		})
		mux.Start()
		r.Start()
		c.muxes = append(c.muxes, mux)
		c.replicas = append(c.replicas, r)
	}
	t.Cleanup(func() {
		for _, r := range c.replicas {
			r.Stop()
		}
		for _, m := range c.muxes {
			m.Stop()
		}
		c.net.Close()
	})
	return c
}

func (c *cluster) waitCommitted(who []int, count int, timeout time.Duration) {
	c.t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		ok := true
		c.mu.Lock()
		for _, i := range who {
			if len(c.logs[i]) < count {
				ok = false
				break
			}
		}
		c.mu.Unlock()
		if ok {
			return
		}
		if time.Now().After(deadline) {
			c.mu.Lock()
			counts := make([]int, len(c.logs))
			for i := range c.logs {
				counts[i] = len(c.logs[i])
			}
			c.mu.Unlock()
			c.t.Fatalf("timed out waiting for %d commits; have %v", count, counts)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func (c *cluster) checkPrefix(who []int) {
	c.t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, i := range who {
		for _, j := range who {
			a, b := c.logs[i], c.logs[j]
			n := len(a)
			if len(b) < n {
				n = len(b)
			}
			for k := 0; k < n; k++ {
				if a[k] != b[k] {
					c.t.Fatalf("commit logs diverge at %d between replicas %d and %d", k, i, j)
				}
			}
		}
	}
}

func allOf(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func TestHotStuffCommitsChain(t *testing.T) {
	c := newCluster(t, 4, 10)
	c.waitCommitted(allOf(4), 10, 20*time.Second)
	c.checkPrefix(allOf(4))
	m := c.replicas[0].Metrics()
	if m.CommittedTxs.Load() == 0 {
		t.Fatal("no transactions committed")
	}
}

func TestHotStuffEveryReplicaSignsEveryBlock(t *testing.T) {
	// The property the paper's comparison hinges on (§2): in HotStuff all
	// nodes sign each block, so SignOps grows with commits at every
	// replica, proposer or not.
	c := newCluster(t, 4, 10)
	c.waitCommitted(allOf(4), 8, 20*time.Second)
	for i, r := range c.replicas {
		if r.Metrics().SignOps.Load() < 8 {
			t.Fatalf("replica %d signed only %d times for 8+ commits", i, r.Metrics().SignOps.Load())
		}
	}
}

func TestHotStuffSevenNodes(t *testing.T) {
	c := newCluster(t, 7, 20)
	c.waitCommitted(allOf(7), 10, 30*time.Second)
	c.checkPrefix(allOf(7))
}

func TestHotStuffLeaderCrash(t *testing.T) {
	const n = 4
	c := newCluster(t, n, 10)
	c.waitCommitted(allOf(n), 3, 20*time.Second)
	c.net.Crash(2)
	alive := []int{0, 1, 3}
	// Count from the longest alive log: a replica whose delivery lags at the
	// moment of the crash reaches its own length + a few from blocks decided
	// before it. 2n commits past the longest log cannot come from the blocks
	// in flight (≤ 3) and the views before node 2's next turn (≤ 3), so the
	// cluster has got past a view whose leader is down.
	c.mu.Lock()
	base := 0
	for _, i := range alive {
		if len(c.logs[i]) > base {
			base = len(c.logs[i])
		}
	}
	c.mu.Unlock()
	c.waitCommitted(alive, base+2*n, 60*time.Second)
	c.checkPrefix(alive)
	var timeouts uint64
	for _, i := range alive {
		timeouts += c.replicas[i].Metrics().Timeouts.Load()
	}
	if timeouts == 0 {
		t.Fatal("no pacemaker timeouts despite a crashed leader")
	}
}

func TestQCVerifyRejectsForgeries(t *testing.T) {
	ks := flcrypto.MustGenerateKeySet(4, flcrypto.Ed25519)
	hash := flcrypto.Sum256([]byte("block"))
	qc := QC{View: 3, BlockHash: hash}
	for i := 0; i < 3; i++ {
		sig, err := ks.Privs[i].Sign(voteBody(3, hash))
		if err != nil {
			t.Fatal(err)
		}
		qc.Voters = append(qc.Voters, flcrypto.NodeID(i))
		qc.Sigs = append(qc.Sigs, sig)
	}
	if !qc.verify(ks.Registry, 3) {
		t.Fatal("valid QC rejected")
	}
	// Duplicate voters must not count twice.
	dup := QC{View: 3, BlockHash: hash,
		Voters: []flcrypto.NodeID{0, 0, 0},
		Sigs:   []flcrypto.Signature{qc.Sigs[0], qc.Sigs[0], qc.Sigs[0]}}
	if dup.verify(ks.Registry, 3) {
		t.Fatal("duplicate-voter QC accepted")
	}
	// Wrong view: signatures do not check out.
	wrong := qc
	wrong.View = 4
	if wrong.verify(ks.Registry, 3) {
		t.Fatal("view-shifted QC accepted")
	}
	// Genesis convention.
	genesis := QC{}
	if !genesis.verify(ks.Registry, 3) {
		t.Fatal("genesis QC rejected")
	}
}

func TestQCRoundTrip(t *testing.T) {
	ks := flcrypto.MustGenerateKeySet(4, flcrypto.Ed25519)
	hash := flcrypto.Sum256([]byte("b"))
	qc := QC{View: 9, BlockHash: hash}
	for i := 0; i < 3; i++ {
		sig, _ := ks.Privs[i].Sign(voteBody(9, hash))
		qc.Voters = append(qc.Voters, flcrypto.NodeID(i))
		qc.Sigs = append(qc.Sigs, sig)
	}
	blk := Block{View: 10, Parent: hash, Justify: qc, Batch: [][]byte{{1, 2}, {3}}}
	e := newTestEncoder()
	blk.encode(e)
	d := newTestDecoder(e.Bytes())
	got := decodeBlock(d)
	if d.Finish() != nil {
		t.Fatal("decode failed")
	}
	if got.Hash() != blk.Hash() {
		t.Fatal("block hash changed across round trip")
	}
	if !got.Justify.verify(ks.Registry, 3) {
		t.Fatal("QC invalid after round trip")
	}
}
