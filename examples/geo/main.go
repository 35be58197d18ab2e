// Command geo reproduces the flavor of the paper's §7.5 multi-data-center
// deployment in-process: ten nodes placed in the ten AWS regions of the
// paper (Tokyo, Canada-Central, Frankfurt, Paris, São Paulo, Oregon,
// Singapore, Sydney, Ireland, Ohio) with realistic inter-region latencies,
// compressed by a scale factor so the demo finishes quickly. It prints the
// observed throughput and latency and contrasts them with a zero-latency
// run — the ≈10× bps gap of Fig 13.
package main

import (
	"fmt"
	"time"

	fireledger "repro"
	"repro/internal/transport"
	"repro/internal/workload"
)

func run(latency fireledger.LatencyModel, label string, timer time.Duration) (bps float64) {
	cluster, err := fireledger.NewLocalClusterOn(10, latency, func(i int, cfg *fireledger.Config) {
		cfg.BatchSize = 100
		cfg.Source = workload.Saturating(fireledger.NodeID(i), 512) // σ=512, the Bitcoin-sized transactions of §7
		cfg.InitialTimer = timer
	})
	if err != nil {
		panic(err)
	}
	cluster.Start()
	defer cluster.Stop()

	time.Sleep(1 * time.Second) // warm up
	base := cluster.Node(0).Worker(0).Metrics().DefiniteBlocks.Load()
	window := 4 * time.Second
	time.Sleep(window)
	blocks := cluster.Node(0).Worker(0).Metrics().DefiniteBlocks.Load() - base
	bps = float64(blocks) / window.Seconds()
	fmt.Printf("%-22s bps=%7.1f tps=%9.0f\n", label, bps, bps*100)
	return bps
}

func main() {
	fmt.Println("10-node cluster, beta=100, sigma=512")
	for i, region := range transport.GeoRegions {
		fmt.Printf("  node %d -> %s\n", i, region)
	}
	lan := run(transport.SingleDC(), "single data-center:", 25*time.Millisecond)
	geo := run(transport.Geo(0.25), "geo (0.25x real RTTs):", 250*time.Millisecond)
	fmt.Printf("geo/lan bps ratio: %.2f (paper Fig 13: geo is <10%% of single-DC bps)\n", geo/lan)
}
