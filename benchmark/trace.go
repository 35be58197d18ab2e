package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"repro/benchmark/wire"
)

// span is one timed interval of one request. Spans of a write share its
// (client, seq) identifier; Parent names the span that caused this one
// ("" for the root). Times are Unix nanoseconds on the shared host clock.
type span struct {
	Name   string `json:"name"`
	Client uint64 `json:"client"`
	Seq    uint64 `json:"seq"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

func (s span) duration() int64 { return s.End - s.Start }

// selfTime is a span's duration minus the part of its interval that its
// children cover. Children may overlap each other and may stick out of the
// parent; only their union inside the parent counts.
func selfTime(parent span, children []span) int64 {
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var covered, reach int64
	reach = parent.Start
	for _, v := range ivs {
		if v.hi <= reach {
			continue
		}
		covered += v.hi - max(v.lo, reach)
		reach = v.hi
	}
	return parent.duration() - covered
}

// Span names. The stages tile a write's life from due time to receipt, each
// named after the module whose boundary closes it; submit_to_ack is recorded
// beside them (it overlaps pool_wait: the ACK travels back while the write
// already waits in the pool).
const (
	spanTx          = "tx"
	spanSubmitWire  = "session.submit_wire" // due → the node's Submit is entered (generator lateness included)
	spanSubmitToAck = "session.submit_to_ack"
	spanPoolWait    = "flo.pool_wait"      // node Submit → event A of the carrying block
	spanAToB        = "core.a_to_b"        // A → B
	spanBToC        = "wrb.b_to_c"         // B → C
	spanCToD        = "core.c_to_d"        // C → D
	spanMergeWait   = "flo.merge_wait"     // D → E
	spanApply       = "statemachine.apply" // E → Deliver (state workloads)
	spanDeliverTap  = "clientapi.deliver_tap"
	spanReceiptWire = "session.receipt_wire" // tap done at the node → receipt at the client
)

// stages are the spans that tile the root, in order.
var stages = []string{
	spanSubmitWire, spanPoolWait, spanAToB, spanBToC, spanCToD,
	spanMergeWait, spanApply, spanDeliverTap, spanReceiptWire,
}

// nodeTrace is one node's trace file, indexed.
type nodeTrace struct {
	blocks map[[2]uint64]*wire.BlockTrace // (worker, round)
	order  []*wire.BlockTrace             // merged delivery order
	txs    []wire.TxTrace
}

func readNodeTrace(path string) (nodeTrace, error) {
	nt := nodeTrace{blocks: make(map[[2]uint64]*wire.BlockTrace)}
	f, err := os.Open(path)
	if err != nil {
		return nt, fmt.Errorf("node trace: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		var line wire.TraceLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return nt, fmt.Errorf("node trace %s: %w", path, err)
		}
		switch {
		case line.Block != nil:
			nt.blocks[[2]uint64{uint64(line.Block.Worker), line.Block.Round}] = line.Block
			nt.order = append(nt.order, line.Block)
		case line.Tx != nil:
			nt.txs = append(nt.txs, *line.Tx)
		}
	}
	return nt, sc.Err()
}

// writeSpans builds the span tree of one sampled write from the load
// generator's stamps (wall clock), the serving node's stamp of the write and
// its stamps of the carrying block. ok is false when a stamp is missing: the
// block was proposed by another node after a recovery, or the node exited
// before the tap ran.
func writeSpans(client uint64, seq uint64, due, sent, ack, done int64, tx wire.TxTrace, b *wire.BlockTrace, state bool) (tree []span, ok bool) {
	if b == nil || b.A == 0 || b.B == 0 || b.C == 0 || b.D == 0 || b.E == 0 || b.Deliver == 0 || b.TapDone == 0 {
		return nil, false
	}
	mk := func(name, parent string, start, end int64) span {
		return span{Name: name, Client: client, Seq: seq, Parent: parent, Start: start, End: end}
	}
	e := b.E
	if !state {
		e = b.Deliver // no apply step between the merger and the Deliver hook
	}
	tree = []span{
		mk(spanTx, "", due, done),
		mk(spanSubmitWire, spanTx, due, tx.Submit),
		mk(spanPoolWait, spanTx, tx.Submit, b.A),
		mk(spanAToB, spanTx, b.A, b.B),
		mk(spanBToC, spanTx, b.B, b.C),
		mk(spanCToD, spanTx, b.C, b.D),
		mk(spanMergeWait, spanTx, b.D, e),
	}
	if state {
		tree = append(tree, mk(spanApply, spanTx, e, b.Deliver))
	}
	tree = append(tree,
		mk(spanDeliverTap, spanTx, b.Deliver, b.TapDone),
		mk(spanReceiptWire, spanTx, b.TapDone, done),
	)
	if ack != 0 {
		tree = append(tree, mk(spanSubmitToAck, spanTx, sent, ack))
	}
	return tree, true
}

// saveSpans writes spans as JSON lines.
func saveSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
