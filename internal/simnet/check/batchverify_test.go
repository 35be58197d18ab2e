package check

import (
	"fmt"
	"testing"

	"repro/internal/flcrypto"
)

// honestBatchStats sums the verify-pool batch counters across a cluster's
// honest nodes, failing if any honest node is missing its pool or runs with
// batching off (the default config must batch — the invariant
// flcrypto's TestVerifyPoolBatchOnByDefault pins for a bare pool).
func honestBatchStats(c *Cluster) (flcrypto.PoolBatchStats, error) {
	var sum flcrypto.PoolBatchStats
	for _, i := range c.Scenario.honest() {
		pool := c.Nodes[i].VerifyPool()
		if pool == nil {
			return sum, fmt.Errorf("node %d has no verify pool", i)
		}
		if !pool.BatchEnabled() {
			return sum, fmt.Errorf("node %d verify pool is not batching", i)
		}
		st := pool.BatchStats()
		sum.Batches += st.Batches
		sum.BatchedSigs += st.BatchedSigs
		sum.Bisections += st.Bisections
		sum.Singles += st.Singles
		sum.Waited += st.Waited
	}
	return sum, nil
}

// TestSimForgerBatchBisection runs the forger corpus scenario and asserts
// the batch-verification failure cone actually fired under faults: honest
// pools formed real multi-signature batches, the forger's envelopes made
// combinations fail and bisect, and — via the scenario's standard agreement
// and liveness oracles — no honest signature was rejected as collateral.
func TestSimForgerBatchBisection(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second cluster scenario")
	}
	sc := RegressionScenario("forger-batch-bisect")
	err := Run(sc, RunOpts{Logf: t.Logf, Inspect: func(c *Cluster) error {
		st, err := honestBatchStats(c)
		if err != nil {
			return err
		}
		t.Logf("honest pools: %d batches (%d sigs), %d bisections, %d singles, waited %s",
			st.Batches, st.BatchedSigs, st.Bisections, st.Singles, st.Waited)
		if st.Batches == 0 {
			return fmt.Errorf("no verification batches formed under sim load")
		}
		if st.Bisections == 0 {
			return fmt.Errorf("forged envelopes never triggered a bisection (batches=%d)", st.Batches)
		}
		return nil
	}})
	if err != nil {
		t.Fatalf("%v\n%s", err, sc.String())
	}
}

// TestSimAdaptiveGeoWAN runs the geo-WAN corpus scenario: under §7.5
// inter-region latencies, signature arrivals are bursty rather than
// loopback-dense, and the adaptive fill wait must neither stall lone
// envelopes between bursts (the run's liveness oracle) nor stop batching
// when bursts arrive (asserted here).
func TestSimAdaptiveGeoWAN(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second cluster scenario")
	}
	sc := RegressionScenario("adaptive-geo-wan")
	err := Run(sc, RunOpts{Logf: t.Logf, Inspect: func(c *Cluster) error {
		st, err := honestBatchStats(c)
		if err != nil {
			return err
		}
		t.Logf("honest pools over geo WAN: %d batches (%d sigs), %d bisections, %d singles, waited %s",
			st.Batches, st.BatchedSigs, st.Bisections, st.Singles, st.Waited)
		if st.Batches == 0 {
			return fmt.Errorf("no verification batches formed over the WAN model")
		}
		return nil
	}})
	if err != nil {
		t.Fatalf("%v\n%s", err, sc.String())
	}
}
