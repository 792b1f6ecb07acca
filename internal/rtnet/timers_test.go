package rtnet

import (
	"testing"
	"time"

	"lintime/internal/sim"
	"lintime/internal/simtime"
)

// timerCount returns the number of protocol timers still due to fire,
// read on the loop; a stopped cluster has none.
func (c *Cluster) timerCount() int {
	n := 0
	c.Inspect(0, func() { n = c.eng.Timers() })
	return n
}

// timerNode responds to every invocation from a timer callback, so each
// operation exercises the SetTimer → fire → OnTimer path end to end. It
// keeps its Context so a test can set and cancel timers as a handler
// would.
type timerNode struct {
	delay simtime.Duration
	seq   int64
	ctx   sim.Context
}

func (tn *timerNode) Init(ctx sim.Context) { tn.ctx = ctx }
func (tn *timerNode) OnInvoke(ctx sim.Context, inv sim.Invocation) {
	tn.seq = inv.SeqID
	ctx.SetTimer(tn.delay, "fire")
}
func (tn *timerNode) OnMessage(ctx sim.Context, from sim.ProcID, payload any) {}
func (tn *timerNode) OnTimer(ctx sim.Context, tag any) {
	ctx.Respond(tn.seq, tag)
}

// TestTimerMapDrainsAfterFire is the regression test for the timer leak:
// fired timers must leave the live set, including zero-delay timers that
// fire at the tick they were set — a firing must never be dropped and
// its entry never leaked.
func TestTimerMapDrainsAfterFire(t *testing.T) {
	p := simtime.Params{N: 2, D: 40, U: 20, Epsilon: 10, X: 10}
	nodes := []sim.Node{&timerNode{delay: 0}, &timerNode{delay: 5}}
	c, err := NewCluster(p, tick, sim.ZeroOffsets(2), nodes, 1)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Stop()
	for i := 0; i < 50; i++ {
		proc := sim.ProcID(i % 2)
		ch, err := c.Invoke(proc, "op", i, -1)
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		select {
		case r := <-ch:
			if r.Ret != "fire" {
				t.Fatalf("op %d returned %v, want timer tag", i, r.Ret)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("op %d: timer never fired (firing dropped by registration race)", i)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for c.timerCount() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("timer map did not drain: %d live entries", c.timerCount())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestTimerMapDrainsOnCancel asserts CancelTimer removes the entry.
func TestTimerMapDrainsOnCancel(t *testing.T) {
	p := simtime.Params{N: 2, D: 40, U: 20, Epsilon: 10, X: 10}
	node := &timerNode{}
	c, err := NewCluster(p, tick, sim.ZeroOffsets(2), []sim.Node{node, &timerNode{}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Stop()
	var id sim.TimerID
	c.Inspect(0, func() { id = node.ctx.SetTimer(simtime.Duration(1e6), nil) })
	if got := c.timerCount(); got != 1 {
		t.Fatalf("registered timers = %d, want 1", got)
	}
	c.Inspect(0, func() { node.ctx.CancelTimer(id) })
	if got := c.timerCount(); got != 0 {
		t.Fatalf("timers after cancel = %d, want 0", got)
	}
	// Canceling again is a no-op.
	c.Inspect(0, func() { node.ctx.CancelTimer(id) })
	if got := c.timerCount(); got != 0 {
		t.Fatalf("timers after double cancel = %d, want 0", got)
	}
}

// TestTimerMapDrainsOnStop asserts Stop clears entries of timers that
// never fired.
func TestTimerMapDrainsOnStop(t *testing.T) {
	c, _ := newQueueCluster(t, 3)
	c.Start()
	c.Call(0, "enqueue", 1, -1) // leaves replication timers pending on peers
	c.Stop()
	if got := c.timerCount(); got != 0 {
		t.Fatalf("timers after Stop = %d, want 0", got)
	}
}
