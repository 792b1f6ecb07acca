package rtnet

import (
	"testing"
	"time"

	"lintime/internal/adt"
	"lintime/internal/obs"
)

// TestSpanLifecycleRealTime drives one mutator through a live cluster
// with a collector attached and checks the full lifecycle lands in
// time order: the invoke opens the span, the replica broadcast fans
// out, peers record deliveries, the stabilization timer fires, and the
// response closes the span — the real-time half of the sim span test.
func TestSpanLifecycleRealTime(t *testing.T) {
	p := rtParams(3)
	coll := obs.NewCollector(64)
	c, _ := newQueueCluster(t, 3)
	c.SetTracer(coll)
	c.Start()
	defer c.Stop()

	r := mustCall(t, c, 0, adt.OpEnqueue, 7)
	time.Sleep(5 * time.Duration(p.D) * tick) // let replication settle

	var evs []obs.SpanEvent
	for _, tree := range coll.Trees() {
		if tree.Span == r.Seq {
			evs = tree.Events
		}
	}
	if len(evs) < 4 {
		t.Fatalf("span %d: got %d events %+v, want at least invoke/broadcast/deliver/respond", r.Seq, len(evs), evs)
	}
	counts := map[obs.Stage]int{}
	for _, ev := range evs {
		counts[ev.Stage]++
	}
	if counts[obs.StageInvoke] != 1 || counts[obs.StageRespond] != 1 {
		t.Fatalf("span %d must open and close exactly once: %v", r.Seq, counts)
	}
	if counts[obs.StageBroadcast] < 2 || counts[obs.StageDeliver] < 2 {
		t.Fatalf("mutator on 3 replicas must broadcast to and deliver at both peers: %v", counts)
	}
	if evs[0].Stage != obs.StageInvoke || evs[0].Op != adt.OpEnqueue {
		t.Fatalf("first span event: %+v, want the %s invoke", evs[0], adt.OpEnqueue)
	}
	last := evs[len(evs)-1]
	if last.Stage == obs.StageInvoke || last.Stage == obs.StageBroadcast {
		// Responds happen after the MOP wait (X+ε); late deliveries and
		// peer stabilization timers may trail it, but the span can never
		// end on its own opening stages.
		t.Fatalf("last span event: %+v", last)
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Time < evs[i-1].Time {
			t.Fatalf("span events went back in time: %+v then %+v", evs[i-1], evs[i])
		}
	}
}

// TestClusterMetrics wires rtnet.Metrics into a live cluster and checks
// the counters and the delivery-latency histogram against the network
// envelope [d-u, d].
func TestClusterMetrics(t *testing.T) {
	p := rtParams(3)
	reg := obs.NewRegistry()
	c, _ := newQueueCluster(t, 3)
	m := NewMetrics(reg, p)
	c.SetMetrics(m)
	c.Start()
	defer c.Stop()

	mustCall(t, c, 0, adt.OpEnqueue, 1)
	mustCall(t, c, 1, adt.OpEnqueue, 2)
	time.Sleep(5 * time.Duration(p.D) * tick)

	if got := m.Delivered.Value(); got < 4 {
		t.Fatalf("delivered: got %d, want >= 4 (two mutators broadcast to two peers each)", got)
	}
	if got := m.TimerFires.Value(); got < 2 {
		t.Fatalf("timer fires: got %d, want >= 2 (one stabilization wait per mutator)", got)
	}
	s := m.MsgLatency.Summary()
	if s.Count != m.Delivered.Value() {
		t.Fatalf("latency samples %d != delivered %d", s.Count, m.Delivered.Value())
	}
	// Scheduled delays obey [d-u, d]; dispatch can only run late, adding
	// loop lag on top (never removing it), and tick truncation can shave
	// one tick.
	if s.Min < int64(p.D-p.U)-1 {
		t.Fatalf("min latency %d below the d-u bound %d", s.Min, p.D-p.U)
	}
	if s.Max > 4*int64(p.D) {
		t.Fatalf("max latency %d implausibly above d (%d): handling stalled?", s.Max, p.D)
	}
}
