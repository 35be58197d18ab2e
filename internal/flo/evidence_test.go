package flo

import (
	"sync"
	"testing"
	"time"

	"repro/internal/evidence"
	"repro/internal/flcrypto"
	"repro/internal/transport"
	"repro/internal/workload"
)

// TestEquivocatorConvictedAndExcluded drives the full accountability path of
// paper §1: a Byzantine split-equivocator causes recoveries, some correct
// node assembles the equivocation proof, a conviction transaction reaches a
// definite block, and from the agreed effective round on the culprit is
// excluded from the proposer rotation — after which the recoveries stop and
// the cluster keeps deciding blocks without it.
func TestEquivocatorConvictedAndExcluded(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second cluster test")
	}
	const n = 4
	const byz = 3
	var mu sync.Mutex
	convictions := make(map[flcrypto.NodeID][]evidence.Record) // observer node → records
	c := newCluster(t, n, func(i int, cfg *Config) {
		cfg.ExcludeConvicted = true
		cfg.BatchSize = 5
		if i == byz {
			cfg.Equivocate = true
		}
		id := flcrypto.NodeID(i)
		cfg.OnConviction = func(_ uint32, rec evidence.Record) {
			mu.Lock()
			convictions[id] = append(convictions[id], rec)
			mu.Unlock()
		}
	})
	correct := []int{0, 1, 2}

	// Phase 1: wait until every correct node derived the same exclusion.
	deadline := time.Now().Add(45 * time.Second)
	var effs []uint64
	for {
		effs = effs[:0]
		done := true
		for _, i := range correct {
			conv := c.nodes[i].Worker(0).Convictions()
			eff, ok := conv[byz]
			if !ok {
				done = false
				break
			}
			effs = append(effs, eff)
		}
		if done {
			break
		}
		if time.Now().After(deadline) {
			mu.Lock()
			snap := len(convictions)
			mu.Unlock()
			t.Fatalf("no conviction within deadline; %d nodes saw records", snap)
		}
		time.Sleep(50 * time.Millisecond)
	}
	for _, eff := range effs[1:] {
		if eff != effs[0] {
			t.Fatalf("correct nodes disagree on the effective round: %v", effs)
		}
	}
	eff := effs[0]

	// Soundness: no innocent node is ever convicted — a recovery redo makes
	// correct proposers re-sign rounds, which must not look like an offense.
	for _, i := range correct {
		for culprit := range c.nodes[i].Worker(0).Convictions() {
			if culprit != byz {
				t.Fatalf("node %d convicted innocent node %d", i, culprit)
			}
		}
		for _, rec := range c.nodes[i].EvidencePool(0).Records() {
			if rec.Culprit != byz {
				t.Fatalf("node %d holds evidence against innocent node %d", i, rec.Culprit)
			}
		}
	}

	// The OnConviction hook fired at the correct nodes with the culprit.
	mu.Lock()
	hookSnap := make(map[flcrypto.NodeID][]evidence.Record, len(convictions))
	for id, recs := range convictions {
		hookSnap[id] = append([]evidence.Record(nil), recs...)
	}
	mu.Unlock()
	for _, i := range correct {
		recs := hookSnap[flcrypto.NodeID(i)]
		if len(recs) == 0 || recs[0].Culprit != byz {
			t.Fatalf("node %d conviction records = %+v", i, recs)
		}
	}

	// Phase 2: the cluster must keep finalizing rounds well past the
	// effective round, with the culprit absent from the rotation and no
	// further recoveries.
	recBase := make([]uint64, n)
	for _, i := range correct {
		recBase[i] = c.nodes[i].Worker(0).Metrics().Recoveries.Load()
	}
	target := eff + 10
	c.waitDefinite(correct, 0, target, 60*time.Second)
	for _, i := range correct {
		w := c.nodes[i].Worker(0)
		chain := w.Chain()
		for r := eff; r <= chain.Definite(); r++ {
			hdr, ok := chain.HeaderAt(r)
			if !ok {
				t.Fatalf("node %d missing definite round %d", i, r)
			}
			if hdr.Proposer == byz {
				t.Fatalf("node %d: convicted node proposed round %d (eff %d)", i, r, eff)
			}
		}
		// Recoveries triggered at rounds ≥ eff would be a regression; a few
		// stragglers for pre-eff rounds may still drain, so compare against
		// what had happened by conviction time plus a small allowance.
		recs := w.Metrics().Recoveries.Load()
		if recs > recBase[i]+2 {
			t.Fatalf("node %d: recoveries kept climbing after exclusion (%d → %d)", i, recBase[i], recs)
		}
		if err := chain.Audit(c.ks.Registry); err != nil {
			t.Fatalf("node %d chain audit: %v", i, err)
		}
	}

	// Phase 3: agreement on the definite prefix across correct nodes.
	ref := c.nodes[correct[0]].Worker(0).Chain()
	for _, i := range correct[1:] {
		chain := c.nodes[i].Worker(0).Chain()
		upTo := chain.Definite()
		if ref.Definite() < upTo {
			upTo = ref.Definite()
		}
		for r := uint64(1); r <= upTo; r++ {
			a, _ := ref.HeaderAt(r)
			b, _ := chain.HeaderAt(r)
			if a.Hash() != b.Hash() {
				t.Fatalf("definite round %d differs between node %d and node %d", r, correct[0], i)
			}
		}
	}
}

// TestConvictionSurvivesRestart verifies that the exclusion set is derived
// from the chain: a node restarted from its persisted log re-computes the
// same convictions without having observed the offense.
func TestConvictionSurvivesRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second cluster test")
	}
	dir := t.TempDir()
	var mu sync.Mutex
	convicted := false
	c := newCluster(t, 4, func(i int, cfg *Config) {
		cfg.ExcludeConvicted = true
		cfg.BatchSize = 5
		if i == 3 {
			cfg.Equivocate = true
		}
		if i == 0 {
			cfg.DataDir = dir
			cfg.OnConviction = func(uint32, evidence.Record) {
				mu.Lock()
				convicted = true
				mu.Unlock()
			}
		}
	})
	// Run until node 0 has the conviction on-chain and well finalized.
	deadline := time.Now().Add(45 * time.Second)
	for {
		conv := c.nodes[0].Worker(0).Convictions()
		if _, ok := conv[3]; ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no conviction within deadline")
		}
		time.Sleep(50 * time.Millisecond)
	}
	mu.Lock()
	if !convicted {
		mu.Unlock()
		t.Fatal("OnConviction hook did not fire")
	}
	mu.Unlock()
	want := c.nodes[0].Worker(0).Convictions()

	// Let persistence settle, stop node 0, and restart it from the log
	// alone (no new cluster traffic needed to re-derive the exclusion).
	time.Sleep(200 * time.Millisecond)
	c.nodes[0].Stop()

	// The restarted node only needs its log replayed (NewNode scans the
	// preloaded chain before any networking), so give it an isolated net.
	isolated := transport.NewChanNetwork(transport.ChanConfig{N: 4})
	defer isolated.Close()
	restarted, err := NewNode(Config{
		Endpoint:  isolated.Endpoint(0),
		Registry:  c.ks.Registry,
		Priv:      c.ks.Privs[0],
		Workers:   1,
		BatchSize: 5,
		Source:    workload.Saturating(0, 64),
		DataDir:   dir,
		// ExcludeConvicted alone (no pool hooks): scanning replayed blocks
		// must reproduce the exclusion map.
		ExcludeConvicted: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer restarted.Stop()
	got := restarted.Worker(0).Convictions()
	eff, ok := got[3]
	if !ok {
		t.Fatalf("restart lost the conviction: %v", got)
	}
	if eff != want[3] {
		t.Fatalf("restart changed the effective round: %d vs %d", eff, want[3])
	}
}
