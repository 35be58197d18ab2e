package main

import (
	"errors"
	"testing"
	"time"

	fireledger "repro"
)

// deadSession refuses every write, like a session whose node is gone.
type deadSession struct{ fireledger.Session }

func (deadSession) Submit([]byte) (*fireledger.Pending, error) {
	return nil, errors.New("session closed")
}

// An open loop keeps to its schedule when the session refuses writes: every
// arrival due counts as attempted and as failed, not just the first.
func TestOpenLoopCountsEveryRefusedArrival(t *testing.T) {
	w, _ := findWorkload("rate2k")
	s := &loadSession{
		sess: deadSession{}, w: w, gen: newPayloads(1, 0, 0),
		epoch: time.Now(), stopAt: time.Second,
		due: make([]time.Duration, 50), // all due at once
	}
	s.run()
	p := &pass{w: w, sessions: []*loadSession{s}}
	if attempted, failed := p.counts(); attempted != 50 || failed != 50 {
		t.Errorf("attempted %d, failed %d; want 50 and 50", attempted, failed)
	}
}
