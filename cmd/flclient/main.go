// Command flclient drives a running cmd/fireledger node's client port over
// the Session API (fireledger.Dial): concurrent sessions submit random
// transactions at a configurable rate, every write waits for its commit
// receipt, and the run reports sustained committed throughput plus
// submit→commit latency percentiles.
//
//	flclient -node 127.0.0.1:9000 -clients 4 -size 512 -rate 1000 -duration 30s
//
// It is the operator's load and subscribe tool, not a measuring instrument:
// recorded numbers come from `go run ./benchmark`.
//
// With -subscribe an extra session streams the merged definite block
// sequence from cursor zero for the whole run and the block count is
// reported alongside — exercising the SUBSCRIBE replay/live path under
// submission load.
//
// With -subscribers N the run additionally attaches N concurrent streaming
// sessions, all from cursor zero: every stream must be gap-free (each
// session checks its merged-position sequence is exactly 0,1,2,...), and the
// run exits nonzero if any stream gapped or died. The soft file-descriptor
// limit is raised to the hard ceiling first:
//
//	flclient -node 127.0.0.1:9000 -subscribers 5000 -clients 2 -duration 10s
package main

import (
	"context"
	"flag"
	"log"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	fireledger "repro"
	"repro/internal/clientapi"
	"repro/internal/metrics"
)

func main() {
	var (
		node      = flag.String("node", "127.0.0.1:9000", "node client-API address")
		clients   = flag.Int("clients", 1, "concurrent sessions")
		idBase    = flag.Uint64("id-base", 1000, "client id of the first session (ids are id-base..id-base+clients-1)")
		size      = flag.Int("size", 512, "transaction payload size (sigma)")
		rate      = flag.Int("rate", 1000, "total transactions per second across all sessions (0 = as fast as possible)")
		inflight  = flag.Int("inflight", 256, "max unresolved writes per session (pipelining bound)")
		duration  = flag.Duration("duration", 30*time.Second, "how long to submit")
		subscribe = flag.Bool("subscribe", false, "also stream the merged definite blocks from cursor 0 during the run")
		subsN     = flag.Int("subscribers", 0, "attach this many concurrent streaming sessions from cursor 0; each asserts a gap-free stream")
	)
	flag.Parse()

	hist := metrics.NewHistogram(1 << 20)
	var submitted, committed, failed, streamed atomic.Uint64

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if *subscribe {
		sess, err := fireledger.Dial(*node, *idBase+uint64(*clients))
		if err != nil {
			log.Fatalf("dial subscriber: %v", err)
		}
		defer sess.Close()
		events, err := sess.Blocks(ctx, fireledger.Cursor{})
		if err != nil {
			log.Fatalf("subscribe: %v", err)
		}
		go func() {
			for ev := range events {
				if ev.Err != nil {
					log.Printf("stream ended: %v", ev.Err)
					return
				}
				streamed.Add(1)
			}
		}()
	}

	// The fan-out population: -subscribers sessions over real TCP, every one
	// streaming from cursor 0 and checking its merged-position sequence for
	// gaps. Session ids sit far above the submitters' so commit receipts
	// (routed by tx client id) can never target a subscriber session.
	var (
		subsWG    sync.WaitGroup
		subEvents atomic.Uint64
		subFailed atomic.Uint64
		subGapped atomic.Uint64
		subIDBase = uint64(1) << 32
	)
	if *subsN > 0 {
		raiseFDLimit()
		attachStart := time.Now()
		dialSem := make(chan struct{}, 64)
		for i := 0; i < *subsN; i++ {
			subsWG.Add(1)
			dialSem <- struct{}{}
			go func(i int) {
				defer subsWG.Done()
				released := false
				release := func() {
					if !released {
						released = true
						<-dialSem
					}
				}
				defer release()
				c, err := clientapi.Dial(*node, subIDBase+uint64(i), clientapi.DialOptions{Timeout: time.Minute})
				if err != nil {
					log.Printf("subscriber %d: dial: %v", i, err)
					subFailed.Add(1)
					return
				}
				defer c.Close()
				events, err := c.Subscribe(ctx, clientapi.Cursor{})
				if err != nil {
					log.Printf("subscriber %d: subscribe: %v", i, err)
					subFailed.Add(1)
					return
				}
				release() // bound concurrent dials, not session lifetimes
				workers := uint64(c.Workers())
				var next uint64
				for ev := range events {
					if ev.Err != nil {
						log.Printf("subscriber %d: stream died at pos %d: %v", i, next, ev.Err)
						subFailed.Add(1)
						return
					}
					pos := (ev.Block.Signed.Header.Round-1)*workers + uint64(ev.Worker)
					if pos != next {
						if ctx.Err() != nil {
							// A canceled stream may shed events while it winds
							// down (the client drops frames a gone consumer
							// would block); only a gap seen before cancellation
							// indicts the server's fan-out.
							return
						}
						log.Printf("subscriber %d: GAP: got merged pos %d, want %d", i, pos, next)
						subGapped.Add(1)
						return
					}
					next++
					subEvents.Add(1)
				}
			}(i)
		}
		// Fill the semaphore to know every dial finished, then drain it.
		for i := 0; i < cap(dialSem); i++ {
			dialSem <- struct{}{}
		}
		for i := 0; i < cap(dialSem); i++ {
			<-dialSem
		}
		log.Printf("%d subscribers attached in %v", *subsN, time.Since(attachStart).Round(time.Millisecond))
	}

	benchStart := time.Now()
	stopAt := benchStart.Add(*duration)
	var wg sync.WaitGroup
	for i := 0; i < *clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sess, err := fireledger.Dial(*node, *idBase+uint64(i))
			if err != nil {
				log.Printf("session %d: dial: %v", i, err)
				failed.Add(1)
				return
			}
			defer sess.Close()
			rng := rand.New(rand.NewSource(int64(i)*7919 + time.Now().UnixNano()))
			var interval time.Duration
			if *rate > 0 {
				interval = time.Duration(*clients) * time.Second / time.Duration(*rate)
			}
			sem := make(chan struct{}, *inflight)
			var pwg sync.WaitGroup
			next := time.Now()
			for time.Now().Before(stopAt) {
				payload := make([]byte, *size)
				rng.Read(payload)
				sem <- struct{}{}
				start := time.Now()
				p, err := sess.Submit(payload)
				if err != nil {
					<-sem
					log.Printf("session %d: submit: %v", i, err)
					failed.Add(1)
					break
				}
				submitted.Add(1)
				pwg.Add(1)
				go func() {
					defer pwg.Done()
					defer func() { <-sem }()
					wctx, wcancel := context.WithTimeout(context.Background(), 60*time.Second)
					defer wcancel()
					if _, err := p.Wait(wctx); err != nil {
						failed.Add(1)
						return
					}
					committed.Add(1)
					hist.Observe(time.Since(start))
				}()
				if interval > 0 {
					next = next.Add(interval)
					if d := time.Until(next); d > 0 {
						time.Sleep(d)
					}
				}
			}
			pwg.Wait()
		}(i)
	}
	wg.Wait()
	cancel()
	subsWG.Wait() // streams end cleanly on ctx cancel (STREAM_END, channel close)

	// Measured wall time, not the nominal -duration: it includes dial time
	// and the drain of writes still in flight at the deadline, so tps is
	// committed work over the window the commits actually occupied.
	elapsed := time.Since(benchStart).Seconds()
	if *subsN > 0 {
		log.Printf("fan-out: %d subscribers streamed %d block events (gapped %d, died %d)",
			*subsN, subEvents.Load(), subGapped.Load(), subFailed.Load())
	}
	log.Printf("committed %d/%d txs of %d bytes in %.1fs: %.0f tps, latency p50=%.1fms p90=%.1fms p99=%.1fms (failed %d, streamed %d blocks)",
		committed.Load(), submitted.Load(), *size, elapsed, float64(committed.Load())/elapsed,
		ms(hist.Percentile(50)), ms(hist.Percentile(90)), ms(hist.Percentile(99)), failed.Load(), streamed.Load())
	if committed.Load() == 0 {
		log.Fatal("no write committed — the cluster never acked finality")
	}
	if g, f := subGapped.Load(), subFailed.Load(); g > 0 || f > 0 {
		log.Fatalf("fan-out check failed: %d subscriber streams gapped, %d died", g, f)
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
