package main

import (
	"testing"

	"repro/benchmark/wire"
)

func TestSelfTime(t *testing.T) {
	parent := span{Name: "p", Start: 100, End: 200}
	child := func(lo, hi int64) span { return span{Name: "c", Parent: "p", Start: lo, End: hi} }
	cases := []struct {
		name     string
		children []span
		want     int64
	}{
		{"no children", nil, 100},
		{"one child", []span{child(110, 150)}, 60},
		{"disjoint children", []span{child(100, 120), child(150, 200)}, 30},
		{"overlapping children count once", []span{child(100, 160), child(140, 180)}, 20},
		{"nested children count once", []span{child(100, 200), child(120, 130)}, 0},
		{"a child sticking out is clipped", []span{child(50, 120), child(190, 400)}, 70},
		{"a child outside covers nothing", []span{child(0, 100), child(200, 300)}, 100},
		{"order does not matter", []span{child(150, 200), child(100, 120)}, 30},
	}
	for _, c := range cases {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: self time %d, want %d", c.name, got, c.want)
		}
	}
}

// The stages tile the root span: nothing of a write's life is unaccounted.
func TestWriteSpansTileTheRoot(t *testing.T) {
	b := &wire.BlockTrace{Worker: 0, Round: 7, A: 130, B: 131, C: 150, D: 190, E: 200, Deliver: 210, TapDone: 215}
	tx := wire.TxTrace{Client: 1000, Seq: 5, Submit: 110, Worker: 0, Round: 7}
	for _, state := range []bool{false, true} {
		tree, ok := writeSpans(1000, 5, 100, 101, 112, 230, tx, b, state)
		if !ok {
			t.Fatal("complete stamps rejected")
		}
		root, children := tree[0], tree[1:]
		if root.Name != spanTx || root.Parent != "" || root.duration() != 130 {
			t.Fatalf("root = %+v", root)
		}
		var sum int64
		for _, c := range children {
			if c.Parent != spanTx || c.Client != 1000 || c.Seq != 5 {
				t.Errorf("child %+v does not hang under the write's root", c)
			}
			if c.Name != spanSubmitToAck {
				sum += c.duration()
			}
		}
		if sum != root.duration() {
			t.Errorf("state=%v: stages sum to %d, root lasts %d", state, sum, root.duration())
		}
		if self := selfTime(root, children); self != 0 {
			t.Errorf("state=%v: root self time %d, want 0", state, self)
		}
	}
	b.A = 0 // proposed elsewhere: no stamp
	if _, ok := writeSpans(1000, 5, 100, 101, 112, 230, tx, b, false); ok {
		t.Error("a block without event A produced spans")
	}
	if _, ok := writeSpans(1000, 5, 100, 101, 112, 230, tx, nil, false); ok {
		t.Error("a write without its block produced spans")
	}
}
