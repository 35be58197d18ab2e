package main

import (
	"math"
	"sort"
	"time"

	"repro/benchmark/wire"
)

// metricDef declares one metric of BENCHMARK.json. Every run emits every
// end-to-end metric (tracing off) or every per-layer metric (traced pass); a
// per-layer metric that does not apply to a workload reads 0.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: allowed worsening as a share of the base
}

var endToEndMetrics = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"commit_tps", "1/s", "higher", 0.25},
	{"cpu_us_per_tx", "us", "lower", 0.25},
}

var perLayerMetrics = []metricDef{
	// The benchmark's own validity.
	{Name: "loadgen.late_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "trace.overhead_share", Unit: "ratio", Better: "lower"},
	{Name: "trace.stage_sum_error_share", Unit: "ratio", Better: "lower"},
	// session: root package + clientapi client.
	{Name: "session.submit_to_ack_p50_us", Unit: "us", Better: "lower"},
	{Name: "session.submit_wire_p50_us", Unit: "us", Better: "lower"},
	{Name: "session.receipt_wire_p50_us", Unit: "us", Better: "lower"},
	{Name: "session.commit_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "session.commit_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "session.commit_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "session.read_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "session.degraded_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "session.rejoined_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "session.repeat_commits", Unit: "count", Better: "lower"},
	// clientapi server.
	{Name: "clientapi.submit_ns_per_tx", Unit: "ns", Better: "lower"},
	{Name: "clientapi.deliver_tap_us_per_block", Unit: "us", Better: "lower"},
	{Name: "clientapi.hub.frames_encoded", Unit: "count", Better: "lower"},
	{Name: "clientapi.hub.frames_shared", Unit: "count", Better: "higher"},
	{Name: "clientapi.hub.demotions", Unit: "count", Better: "lower"},
	{Name: "clientapi.hub.probe_blocks_per_s_64subs", Unit: "1/s", Better: "higher"},
	// flo.
	{Name: "flo.pool_wait_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "flo.merge_wait_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "flo.merge_wait_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "flo.txs_per_block_mean", Unit: "count", Better: "higher"},
	{Name: "flo.blocks_per_s", Unit: "1/s", Better: "higher"},
	{Name: "flo.empty_block_share", Unit: "ratio", Better: "lower"},
	// core / wrb / obbc.
	{Name: "core.a_to_b_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "wrb.b_to_c_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "core.c_to_d_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "core.round_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "core.nil_rounds", Unit: "count", Better: "lower"},
	{Name: "core.recoveries", Unit: "count", Better: "lower"},
	{Name: "core.sign_ops_per_block", Unit: "count", Better: "lower"},
	{Name: "obbc.fast_share", Unit: "ratio", Better: "higher"},
	{Name: "core.catchup_range_reqs", Unit: "count", Better: "lower"},
	{Name: "core.catchup_block_reqs", Unit: "count", Better: "lower"},
	{Name: "core.outage_ms", Unit: "ms", Better: "lower"},
	{Name: "core.rejoin_s", Unit: "s", Better: "lower"},
	// flcrypto.
	{Name: "flcrypto.verify_cache_hit_share", Unit: "ratio", Better: "higher"},
	{Name: "flcrypto.verify_batch_mean", Unit: "count", Better: "higher"},
	{Name: "flcrypto.verify_singles", Unit: "count", Better: "lower"},
	{Name: "flcrypto.verify_hold_ms_per_s", Unit: "ms/s", Better: "lower"},
	{Name: "flcrypto.sign_us", Unit: "us", Better: "lower"},
	{Name: "flcrypto.verify_single_us", Unit: "us", Better: "lower"},
	{Name: "flcrypto.verify_batch64_us_per_sig", Unit: "us", Better: "lower"},
	// types.
	{Name: "types.encpool_reuse_share", Unit: "ratio", Better: "higher"},
	{Name: "types.block_encode_us", Unit: "us", Better: "lower"},
	{Name: "types.block_decode_us", Unit: "us", Better: "lower"},
	{Name: "types.body_hash_us", Unit: "us", Better: "lower"},
	// transport.
	{Name: "transport.msgs_per_block", Unit: "count", Better: "lower"},
	{Name: "transport.bytes_per_tx", Unit: "B", Better: "lower"},
	{Name: "transport.send_ns_per_msg", Unit: "ns", Better: "lower"},
	{Name: "transport.flush_frames_mean", Unit: "count", Better: "higher"},
	{Name: "transport.send_drops", Unit: "count", Better: "lower"},
	// store.
	{Name: "store.append_us", Unit: "us", Better: "lower"},
	{Name: "store.append_sync_us", Unit: "us", Better: "lower"},
	{Name: "store.group_commit_mean", Unit: "count", Better: "higher"},
	{Name: "store.read_blocks_per_s", Unit: "1/s", Better: "higher"},
	{Name: "store.disk_bytes_per_tx", Unit: "B", Better: "lower"},
	// statemachine.
	{Name: "statemachine.apply_us_per_block", Unit: "us", Better: "lower"},
	{Name: "statemachine.apply_wait_share", Unit: "ratio", Better: "lower"},
	{Name: "statemachine.get_us", Unit: "us", Better: "lower"},
	{Name: "statemachine.read_wait_p50_ms", Unit: "ms", Better: "lower"},
	// process.
	{Name: "node.rss_mb", Unit: "MB", Better: "lower"},
	{Name: "node.alloc_bytes_per_tx", Unit: "B", Better: "lower"},
	{Name: "node.gc_pause_ms_per_s", Unit: "ms/s", Better: "lower"},
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// counts returns how many operations the pass attempted (writes and reads,
// warm-up and drain included) and how many failed.
func (p *pass) counts() (attempted, failed int) {
	for _, s := range p.sessions {
		attempted += len(s.writes) + s.submitErrs
		failed += s.submitErrs
		for i := range s.writes {
			if s.writes[i].failed {
				failed++
			}
		}
	}
	attempted += len(p.reads)
	for _, r := range p.reads {
		if r.fault != "" {
			failed++
		}
	}
	return attempted, failed
}

func (p *pass) inWindow(at time.Duration) bool { return at >= p.winStart && at < p.winEnd }

// commits is the number of receipts that landed inside the window.
func (p *pass) commits() int {
	n := 0
	for _, s := range p.sessions {
		for i := range s.writes {
			if w := &s.writes[i]; w.done > 0 && !w.failed && p.inWindow(w.done) {
				n++
			}
		}
	}
	return n
}

// latencies returns due→receipt in ms of the committed writes keep accepts.
func (p *pass) latencies(keep func(w *write) bool) []float64 {
	var out []float64
	for _, s := range p.sessions {
		for i := range s.writes {
			if w := &s.writes[i]; w.done > 0 && !w.failed && keep(w) {
				out = append(out, ms(w.done-w.due))
			}
		}
	}
	return out
}

// windowLatencies selects the window's writes: by due time in an open loop,
// so that requests due during a stall are counted; by receipt time in a
// closed loop, matching commit_tps.
func (p *pass) windowLatencies() []float64 {
	if p.w.closedLoop() {
		return p.latencies(func(w *write) bool { return p.inWindow(w.done) })
	}
	return p.latencies(func(w *write) bool { return p.inWindow(w.due) })
}

// sumDelta adds one counter's window delta over all nodes.
func (p *pass) sumDelta(key string) float64 {
	var sum int64
	for _, d := range p.deltas {
		sum += d[key]
	}
	return float64(sum)
}

func (p *pass) commitTPS() float64 { return float64(p.commits()) / p.window.Seconds() }

// endToEnd computes the user-visible metrics over the whole measured window.
// Tracing is off in this pass.
func (p *pass) endToEnd() map[string]measure {
	commits := p.commits()
	m := map[string]measure{
		"setup_s":       {Value: median(p.setups), N: len(p.setups)},
		"commit_tps":    {Value: p.commitTPS(), N: commits},
		"cpu_us_per_tx": {Value: ratio(p.sumDelta(wire.ProcCPUNs)/1e3, float64(commits)), N: commits},
	}
	for _, def := range endToEndMetrics {
		e := m[def.Name]
		e.Unit = def.Unit
		m[def.Name] = e
	}
	return m
}

// stageSamples collects, per span name, the durations (ns) over the sampled
// writes whose life lies inside the window, and the span trees themselves.
func (p *pass) stageSamples() (map[string][]float64, []span) {
	samples := make(map[string][]float64)
	var all []span
	epochWall := p.epoch.UnixNano()
	for si, nt := range p.traces {
		s := p.sessions[si]
		if len(s.writes) == 0 {
			continue
		}
		for _, tx := range nt.txs {
			at := s.find(tx.Seq)
			if tx.Client != s.clientID || at < 0 {
				continue
			}
			w := &s.writes[at]
			if w.done == 0 || w.failed || w.due < p.winStart || w.done >= p.winEnd {
				continue
			}
			var ack int64
			if w.ack != 0 {
				ack = epochWall + int64(w.ack)
			}
			tree, ok := writeSpans(s.clientID, tx.Seq, epochWall+int64(w.due), epochWall+int64(w.sent), ack,
				epochWall+int64(w.done), tx, nt.blocks[[2]uint64{uint64(tx.Worker), tx.Round}], p.w.State)
			if !ok {
				continue
			}
			for _, sp := range tree {
				samples[sp.Name] = append(samples[sp.Name], float64(sp.duration()))
			}
			all = append(all, tree...)
		}
	}
	return samples, all
}

// perLayer computes the traced pass's metrics. ref is the untraced reference
// pass of the same workload and seed (closed loop only; nil otherwise), and
// probes are the layer probes' results.
func (p *pass) perLayer(ref *pass, probes map[string]float64) (map[string]float64, []span) {
	m := make(map[string]float64, len(perLayerMetrics))
	for name, v := range probes {
		m[name] = v
	}
	secs := p.elapsed.Seconds()
	d0 := p.deltas[0]
	blocks, txs := float64(d0[wire.FloBlocks]), float64(d0[wire.FloTxs])
	nodes := float64(len(p.deltas))

	// loadgen / trace.
	if !p.w.closedLoop() {
		var late []float64
		for _, s := range p.sessions {
			for i := range s.writes {
				if w := &s.writes[i]; p.inWindow(w.due) {
					late = append(late, ms(w.sent-w.due))
				}
			}
		}
		d := summarize(late)
		m["loadgen.late_p99_ms"] = d.P99
	}
	nodeCPU := p.sumDelta(wire.ProcCPUNs)
	m["loadgen.cpu_share"] = ratio(float64(p.selfCPU), float64(p.selfCPU)+nodeCPU)
	if ref != nil {
		m["trace.overhead_share"] = 1 - ratio(p.commitTPS(), ref.commitTPS())
	}

	// Spans of the sampled writes.
	samples, spans := p.stageSamples()
	p50 := func(name string) float64 { return summarize(samples[name]).P50 }
	var stageSum float64
	for _, st := range stages {
		stageSum += p50(st)
	}
	if total := p50(spanTx); total > 0 {
		m["trace.stage_sum_error_share"] = math.Abs(stageSum-total) / total
	}
	m["session.submit_to_ack_p50_us"] = p50(spanSubmitToAck) / 1e3
	m["session.submit_wire_p50_us"] = p50(spanSubmitWire) / 1e3
	m["session.receipt_wire_p50_us"] = p50(spanReceiptWire) / 1e3
	m["flo.pool_wait_p50_ms"] = p50(spanPoolWait) / 1e6
	merge := summarize(samples[spanMergeWait])
	m["flo.merge_wait_p50_ms"] = merge.P50 / 1e6
	m["flo.merge_wait_p99_ms"] = merge.P99 / 1e6
	m["core.a_to_b_p50_ms"] = p50(spanAToB) / 1e6
	m["wrb.b_to_c_p50_ms"] = p50(spanBToC) / 1e6
	m["core.c_to_d_p50_ms"] = p50(spanCToD) / 1e6

	// Round time: consecutive tentative decisions of worker 0 on node 0.
	if len(p.traces) > 0 {
		var rounds []float64
		var last int64
		lo, hi := p.epoch.UnixNano()+int64(p.winStart), p.epoch.UnixNano()+int64(p.winEnd)
		for _, b := range p.traces[0].order {
			if b.Worker != 0 || b.C < lo || b.C >= hi {
				continue
			}
			if last != 0 && b.C > last {
				rounds = append(rounds, float64(b.C-last)/1e6)
			}
			last = b.C
		}
		m["core.round_p50_ms"] = summarize(rounds).P50
	}

	// session.
	lat := summarize(p.windowLatencies())
	m["session.commit_p50_ms"] = lat.P50
	m["session.commit_p90_ms"] = lat.P90
	m["session.commit_p99_ms"] = lat.P99
	var readMs []float64
	for _, r := range p.reads {
		if r.fault == "" && p.inWindow(r.at) {
			readMs = append(readMs, ms(r.took))
		}
	}
	m["session.read_p50_ms"] = summarize(readMs).P50
	m["session.repeat_commits"] = float64(p.repeats)
	if p.w.Crash {
		m["session.degraded_p50_ms"] = summarize(p.latencies(func(w *write) bool { return w.due >= p.killAt && w.due < p.restartAt })).P50
		healed := p.rejoinedAt
		if healed == 0 {
			healed = p.winEnd // never rejoined inside the window: no sample
		}
		m["session.rejoined_p50_ms"] = summarize(p.latencies(func(w *write) bool { return w.due >= healed && w.due < p.winEnd })).P50
		m["core.outage_ms"] = ms(p.outage())
		if p.rejoinedAt > 0 {
			m["core.rejoin_s"] = (p.rejoinedAt - p.restartAt).Seconds()
		} else {
			m["core.rejoin_s"] = (p.winEnd - p.restartAt).Seconds() // a floor: still behind at the window's end
		}
		m["core.catchup_range_reqs"] = float64(p.catchup[wire.CoreRangeReqs])
		m["core.catchup_block_reqs"] = float64(p.catchup[wire.CoreBlockReqs])
	}

	// clientapi.
	m["clientapi.submit_ns_per_tx"] = ratio(p.sumDelta(wire.SubmitNs), p.sumDelta(wire.SubmitCalls))
	m["clientapi.deliver_tap_us_per_block"] = ratio(p.sumDelta(wire.TapNs)/1e3, p.sumDelta(wire.TapBlocks))
	m["clientapi.hub.frames_encoded"] = p.sumDelta(wire.HubFramesEncoded)
	m["clientapi.hub.frames_shared"] = p.sumDelta(wire.HubFramesShared)
	m["clientapi.hub.demotions"] = p.sumDelta(wire.HubDemotions)

	// flo.
	m["flo.txs_per_block_mean"] = ratio(txs, blocks)
	m["flo.blocks_per_s"] = ratio(blocks, secs)
	m["flo.empty_block_share"] = ratio(float64(d0[wire.FloEmptyBlocks]), blocks)

	// core / obbc: work summed over the nodes, per block node 0 delivered.
	m["core.nil_rounds"] = p.sumDelta(wire.CoreNilRounds)
	m["core.recoveries"] = p.sumDelta(wire.CoreRecoveries)
	m["core.sign_ops_per_block"] = ratio(p.sumDelta(wire.CoreSignOps), blocks)
	m["obbc.fast_share"] = ratio(p.sumDelta(wire.OBBCFast), p.sumDelta(wire.OBBCFast)+p.sumDelta(wire.OBBCFallback))

	// flcrypto.
	m["flcrypto.verify_cache_hit_share"] = ratio(p.sumDelta(wire.VerifyHits), p.sumDelta(wire.VerifyHits)+p.sumDelta(wire.VerifyMisses))
	m["flcrypto.verify_batch_mean"] = ratio(p.sumDelta(wire.VerifyBatched), p.sumDelta(wire.VerifyBatches))
	m["flcrypto.verify_singles"] = p.sumDelta(wire.VerifySingles)
	m["flcrypto.verify_hold_ms_per_s"] = ratio(p.sumDelta(wire.VerifyHoldNs)/1e6, secs*nodes)

	// types.
	m["types.encpool_reuse_share"] = ratio(p.sumDelta(wire.EncReuses), p.sumDelta(wire.EncGets))

	// transport.
	m["transport.msgs_per_block"] = ratio(p.sumDelta(wire.SendMsgs), blocks)
	m["transport.bytes_per_tx"] = ratio(p.sumDelta(wire.SendBytes), txs)
	m["transport.send_ns_per_msg"] = ratio(p.sumDelta(wire.SendNs), p.sumDelta(wire.SendMsgs))
	m["transport.flush_frames_mean"] = ratio(p.sumDelta(wire.FlushFrames), p.sumDelta(wire.FlushBatches))
	m["transport.send_drops"] = p.sumDelta(wire.SendDrops)

	// store: what node 0's data dir holds per transaction it delivered.
	m["store.disk_bytes_per_tx"] = ratio(float64(p.end0[wire.DiskBytes]), float64(p.end0[wire.FloTxs]))

	// statemachine.
	m["statemachine.apply_us_per_block"] = ratio(p.sumDelta(wire.ApplyNs)/1e3, p.sumDelta(wire.ApplyBlocks))
	m["statemachine.apply_wait_share"] = ratio(float64(d0[wire.ApplyNs]), float64(p.elapsed))
	getUs := ratio(p.sumDelta(wire.GetNs)/1e3, p.sumDelta(wire.GetCalls))
	m["statemachine.get_us"] = getUs
	if len(readMs) > 0 {
		m["statemachine.read_wait_p50_ms"] = math.Max(0, m["session.read_p50_ms"]-getUs/1e3)
	}

	// process.
	m["node.rss_mb"] = float64(p.end0[wire.ProcRSSBytes]) / (1 << 20)
	m["node.alloc_bytes_per_tx"] = ratio(p.sumDelta(wire.ProcAllocBytes), txs)
	m["node.gc_pause_ms_per_s"] = ratio(p.sumDelta(wire.ProcGCPauseNs)/1e6, secs*nodes)
	return m, spans
}

// outage is the longest gap between consecutive receipts in the first five
// seconds after the kill (less when the restart comes sooner).
func (p *pass) outage() time.Duration {
	until := min(p.killAt+5*time.Second, p.restartAt)
	var at []float64
	for _, s := range p.sessions {
		for i := range s.writes {
			if w := &s.writes[i]; w.done >= p.killAt && w.done < until && !w.failed {
				at = append(at, float64(w.done))
			}
		}
	}
	sort.Float64s(at)
	prev := float64(p.killAt)
	var worst float64
	for _, t := range append(at, float64(until)) {
		worst = math.Max(worst, t-prev)
		prev = t
	}
	return time.Duration(worst)
}
