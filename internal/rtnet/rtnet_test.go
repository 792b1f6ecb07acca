package rtnet

import (
	"testing"
	"time"

	"lintime/internal/adt"
	"lintime/internal/classify"
	"lintime/internal/core"
	"lintime/internal/lincheck"
	"lintime/internal/sim"
	"lintime/internal/simtime"
	"lintime/internal/spec"
)

// rtParams keeps the virtual magnitudes small so wall-clock runs stay
// short: d = 40 ticks at 1ms/tick → 40ms message delays.
func rtParams(n int) simtime.Params {
	u := simtime.Duration(20)
	return simtime.Params{N: n, D: 40, U: u, Epsilon: simtime.OptimalEpsilon(n, u), X: 10}
}

const tick = time.Millisecond

// mustCall invokes and waits, failing the test on a cluster error.
func mustCall(t *testing.T, c *Cluster, proc sim.ProcID, op string, arg any) Response {
	t.Helper()
	r, err := c.Call(proc, op, arg, -1)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func newQueueCluster(t *testing.T, n int) (*Cluster, []*core.Replica) {
	t.Helper()
	p := rtParams(n)
	dt, _ := adt.Lookup("queue")
	classes := classify.Classify(dt, classify.DefaultConfig()).Classes()
	replicas := make([]*core.Replica, n)
	nodes := make([]sim.Node, n)
	for i := range nodes {
		replicas[i] = core.NewReplica(dt, classes, core.DefaultTimers(p))
		nodes[i] = replicas[i]
	}
	c, err := NewCluster(p, tick, sim.SpreadOffsets(n, p.Epsilon), nodes, 99)
	if err != nil {
		t.Fatal(err)
	}
	return c, replicas
}

func TestRealTimeQueueBasics(t *testing.T) {
	c, replicas := newQueueCluster(t, 3)
	c.Start()
	defer c.Stop()

	if r := mustCall(t, c, 0, adt.OpEnqueue, 7); r.Ret != nil {
		t.Errorf("enqueue returned %v", r.Ret)
	}
	if r := mustCall(t, c, 1, adt.OpEnqueue, 8); r.Ret != nil {
		t.Errorf("enqueue returned %v", r.Ret)
	}
	// Allow replication to settle, then observe from a third process.
	time.Sleep(5 * time.Duration(rtParams(3).D) * tick)
	if r := mustCall(t, c, 2, adt.OpPeek, nil); !spec.ValuesEqual(r.Ret, 7) {
		t.Errorf("peek returned %v, want 7", r.Ret)
	}
	if r := mustCall(t, c, 2, adt.OpDequeue, nil); !spec.ValuesEqual(r.Ret, 7) {
		t.Errorf("dequeue returned %v, want 7", r.Ret)
	}
	time.Sleep(5 * time.Duration(rtParams(3).D) * tick)
	fps := make([]string, len(replicas))
	for i, rep := range replicas {
		i, rep := i, rep
		c.Inspect(sim.ProcID(i), func() { fps[i] = rep.StateFingerprint() })
	}
	for i := range fps {
		if fps[i] != fps[0] {
			t.Errorf("replica %d diverged: %q vs %q", i, fps[i], fps[0])
		}
	}
}

func TestRealTimeLatencyApproximatesTheory(t *testing.T) {
	p := rtParams(3)
	c, _ := newQueueCluster(t, 3)
	c.Start()
	defer c.Stop()

	// Pure mutator: X+ε ticks, plus scheduling jitter.
	r := mustCall(t, c, 0, adt.OpEnqueue, 1)
	want := p.X + p.Epsilon
	if r.Latency() < want || r.Latency() > want+want/2+10 {
		t.Errorf("enqueue latency %v ticks, want ≈ %v", r.Latency(), want)
	}
	// Pure accessor: d-X+ε ticks.
	r = mustCall(t, c, 1, adt.OpPeek, nil)
	want = p.D - p.X + p.Epsilon
	if r.Latency() < want || r.Latency() > want+want/2+10 {
		t.Errorf("peek latency %v ticks, want ≈ %v", r.Latency(), want)
	}
}

func TestRealTimeConcurrentHistoryLinearizable(t *testing.T) {
	c, _ := newQueueCluster(t, 3)
	c.Start()
	defer c.Stop()

	// Three processes run small concurrent workloads; the collected
	// wall-clock history must be linearizable.
	type rec struct {
		proc sim.ProcID
		resp Response
	}
	results := make(chan rec, 32)
	scripts := [][]struct {
		op  string
		arg any
	}{
		{{adt.OpEnqueue, 1}, {adt.OpPeek, nil}, {adt.OpDequeue, nil}},
		{{adt.OpEnqueue, 2}, {adt.OpDequeue, nil}, {adt.OpPeek, nil}},
		{{adt.OpPeek, nil}, {adt.OpEnqueue, 3}, {adt.OpPeek, nil}},
	}
	donech := make(chan struct{})
	for proc, script := range scripts {
		proc, script := sim.ProcID(proc), script
		go func() {
			for _, s := range script {
				resp, err := c.Call(proc, s.op, s.arg, -1)
				if err != nil {
					t.Error(err)
					break
				}
				results <- rec{proc, resp}
			}
			donech <- struct{}{}
		}()
	}
	for range scripts {
		<-donech
	}
	close(results)

	dt, _ := adt.Lookup("queue")
	var history []lincheck.Op
	id := 0
	for r := range results {
		history = append(history, lincheck.Op{
			ID:      id,
			Name:    r.resp.Op,
			Arg:     r.resp.Arg,
			Ret:     r.resp.Ret,
			Invoke:  r.resp.Invoke,
			Respond: r.resp.Respond,
		})
		id++
	}
	if len(history) != 9 {
		t.Fatalf("collected %d responses, want 9", len(history))
	}
	if !lincheck.Check(dt, history).Linearizable {
		t.Errorf("real-time history not linearizable: %+v", history)
	}
}

func TestRealTimeValidation(t *testing.T) {
	p := rtParams(2)
	dt, _ := adt.Lookup("queue")
	classes := classify.Classify(dt, classify.DefaultConfig()).Classes()
	nodes := core.NewReplicas(2, dt, classes, core.DefaultTimers(p))
	if _, err := NewCluster(p, 0, sim.ZeroOffsets(2), nodes, 1); err == nil {
		t.Error("zero tick should error")
	}
	if _, err := NewCluster(p, tick, sim.ZeroOffsets(3), nodes, 1); err == nil {
		t.Error("offsets length mismatch should error")
	}
	bad := p
	bad.U = p.D + 1
	if _, err := NewCluster(bad, tick, sim.ZeroOffsets(2), nodes, 1); err == nil {
		t.Error("invalid params should error")
	}
}

func TestRealTimeStopTerminates(t *testing.T) {
	c, _ := newQueueCluster(t, 3)
	c.Start()
	mustCall(t, c, 0, adt.OpEnqueue, 5)
	done := make(chan struct{})
	go func() {
		c.Stop()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop did not terminate")
	}
}

// TestRealTimeUseNetwork drives the cluster's delays from a deterministic
// sim.Network instead of the random draw: the run must complete with the
// replicas converged, and out-of-range rule values must be clamped into
// the lower half of [d-u, d] (the band the default draw uses; the engine
// rejects any delay outside [d-u, d]).
func TestRealTimeUseNetwork(t *testing.T) {
	p := rtParams(3)
	c, replicas := newQueueCluster(t, 3)
	// Rule asks for delays far outside the admissible window on both
	// sides; the cluster must clamp to [d-u, d-u/2].
	c.UseNetwork(sim.SequenceNetwork{
		Delays:  []simtime.Duration{0, 1 << 40, p.MinDelay(), p.MinDelay() + p.U/2},
		Default: p.MinDelay(),
	})
	c.Start()
	defer c.Stop()

	if r := mustCall(t, c, 0, adt.OpEnqueue, 5); r.Ret != nil {
		t.Errorf("enqueue returned %v", r.Ret)
	}
	time.Sleep(5 * time.Duration(p.D) * tick)
	if r := mustCall(t, c, 1, adt.OpPeek, nil); !spec.ValuesEqual(r.Ret, 5) {
		t.Errorf("peek returned %v, want 5", r.Ret)
	}
	time.Sleep(5 * time.Duration(p.D) * tick)
	fps := make([]string, len(replicas))
	for i, rep := range replicas {
		i, rep := i, rep
		c.Inspect(sim.ProcID(i), func() { fps[i] = rep.StateFingerprint() })
	}
	for i := range fps {
		if fps[i] != fps[0] {
			t.Errorf("replica %d diverged: %q vs %q", i, fps[i], fps[0])
		}
	}
}
