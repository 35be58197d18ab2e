// Command byzantine demonstrates FireLedger's §7.4.2 adversary and the
// recovery machinery: node 3 equivocates — on each of its proposing turns it
// sends different block versions to two halves of the cluster. Correct
// nodes detect the broken hash link, reliably broadcast a cryptographic
// proof of the inconsistency, run the atomic-broadcast recovery procedure,
// and keep extending a single agreed chain. The demo prints the recovery
// count and verifies the correct replicas' definite prefixes match.
package main

import (
	"fmt"
	"time"

	fireledger "repro"
	"repro/internal/workload"
)

func main() {
	cluster, err := fireledger.NewLocalCluster(4, func(i int, cfg *fireledger.Config) {
		cfg.BatchSize = 10
		cfg.Source = workload.Saturating(fireledger.NodeID(i), 64) // synthetic full-block load
		if i == 3 {
			cfg.Equivocate = true // the Byzantine split-proposer
		}
	})
	if err != nil {
		panic(err)
	}
	cluster.Start()
	defer cluster.Stop()

	correct := []int{0, 1, 2}
	fmt.Println("running with an equivocating proposer (node 3)...")
	deadline := time.Now().Add(120 * time.Second)
	for {
		minDef := uint64(1<<63 - 1)
		for _, i := range correct {
			if d := cluster.Node(i).Worker(0).Chain().Definite(); d < minDef {
				minDef = d
			}
		}
		if minDef >= 20 {
			break
		}
		if time.Now().After(deadline) {
			panic("no progress under the equivocator")
		}
		time.Sleep(50 * time.Millisecond)
	}

	// Definite prefixes must agree despite the adversary.
	minDef := cluster.Node(0).Worker(0).Chain().Definite()
	for _, i := range correct[1:] {
		if d := cluster.Node(i).Worker(0).Chain().Definite(); d < minDef {
			minDef = d
		}
	}
	for r := uint64(1); r <= minDef; r++ {
		base, _ := cluster.Node(0).Worker(0).Chain().HeaderAt(r)
		for _, i := range correct[1:] {
			hdr, ok := cluster.Node(i).Worker(0).Chain().HeaderAt(r)
			if !ok || hdr.Hash() != base.Hash() {
				panic(fmt.Sprintf("round %d differs between correct nodes", r))
			}
		}
	}

	var recoveries, nils uint64
	for _, i := range correct {
		m := cluster.Node(i).Worker(0).Metrics()
		recoveries += m.Recoveries.Load()
		nils += m.NilRounds.Load()
	}
	fmt.Printf("agreed definite prefix: %d rounds\n", minDef)
	fmt.Printf("recoveries run: %d, failed (nil) rounds: %d\n", recoveries, nils)
	fmt.Println("BBFC(f+1) agreement held: the equivocator could not fork the definite chain")
}
