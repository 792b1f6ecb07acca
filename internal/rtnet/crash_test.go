package rtnet

import (
	"errors"
	"testing"
	"time"

	"lintime/internal/adt"
	"lintime/internal/harness"
	"lintime/internal/obs"
	"lintime/internal/quorum"
	"lintime/internal/sim"
	"lintime/internal/spec"
)

// newQuorumCluster builds an rtnet cluster running the ABD quorum
// register — the backend whose whole point is surviving the crashes this
// file injects.
func newQuorumCluster(t *testing.T, n int) *Cluster {
	t.Helper()
	p := rtParams(n)
	p.Epsilon, p.X = 0, 0 // the quorum protocol reads no clocks
	dt := adt.NewRegister(0)
	nodes, err := harness.QuorumNodes(p, dt, quorum.DefaultConfig(p))
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(p, tick, sim.ZeroOffsets(n), nodes, 42)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestCrashQuorumMajorityKeepsServing is the end-to-end story: crash a
// minority of an ABD cluster mid-run and the survivors keep completing
// reads and writes against the remaining majority, while the crashed
// process itself refuses invocations with ErrCrashed.
func TestCrashQuorumMajorityKeepsServing(t *testing.T) {
	reg := obs.NewRegistry()
	c := newQuorumCluster(t, 3)
	m := NewMetrics(reg, c.Params())
	c.SetMetrics(m)
	c.Start()
	defer c.Stop()

	if r := mustCall(t, c, 0, quorum.OpWrite, 7); r.Ret != nil {
		t.Errorf("write returned %v", r.Ret)
	}
	c.Crash(2)
	if !c.Crashed(2) {
		t.Fatal("Crashed(2) = false after Crash")
	}
	if got := m.Crashes.Value(); got != 1 {
		t.Errorf("crashes_injected = %d, want 1", got)
	}
	if _, err := c.Call(2, quorum.OpRead, nil, -1); !errors.Is(err, ErrCrashed) {
		t.Errorf("Call at crashed process returned %v, want ErrCrashed", err)
	}
	if _, err := c.Invoke(2, quorum.OpRead, nil, -1); !errors.Is(err, ErrCrashed) {
		t.Errorf("Invoke at crashed process returned %v, want ErrCrashed", err)
	}
	// The two survivors are a majority: both phases still reach quorum.
	if r := mustCall(t, c, 0, quorum.OpRead, nil); !spec.ValuesEqual(r.Ret, 7) {
		t.Errorf("post-crash read at p0 returned %v, want 7", r.Ret)
	}
	if r := mustCall(t, c, 1, quorum.OpWrite, 9); r.Ret != nil {
		t.Errorf("post-crash write returned %v", r.Ret)
	}
	if r := mustCall(t, c, 1, quorum.OpRead, nil); !spec.ValuesEqual(r.Ret, 9) {
		t.Errorf("post-crash read at p1 returned %v, want 9", r.Ret)
	}
	if err := c.Drain(10 * time.Second); err != nil {
		t.Fatalf("drain after crash: %v", err)
	}
	if c.Err() != nil {
		t.Fatalf("cluster recorded failure: %v", c.Err())
	}
}

// TestCrashedInboxDrainsWithoutOverflow: a crashed process keeps
// receiving quorum traffic (live writers broadcast to every replica, dead
// or not). Those deliveries must neither reach the node nor fail the
// cluster; each is recorded as a dropped delivery in metrics and trace.
func TestCrashedInboxDrainsWithoutOverflow(t *testing.T) {
	reg := obs.NewRegistry()
	coll := obs.NewCollector(64)
	c := newQuorumCluster(t, 3)
	m := NewMetrics(reg, c.Params())
	c.SetMetrics(m)
	c.SetTracer(coll)
	c.Start()
	defer c.Stop()

	c.Crash(2)
	// Each write broadcasts two phases to both peers: 16 writes send 32
	// messages to the crashed p2.
	for i := 0; i < 16; i++ {
		if _, err := c.Call(0, quorum.OpWrite, i, -1); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	if err := c.Drain(10 * time.Second); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if err := c.Err(); err != nil {
		t.Fatalf("cluster failed: %v", err)
	}
	if got := m.CrashDrops.Value(); got < 32 {
		t.Errorf("post-crash drops = %d, want >= 32", got)
	}
	dropped := 0
	for _, tree := range coll.Trees() {
		for _, ev := range tree.Events {
			if ev.Stage == obs.StageDropped {
				dropped++
				if ev.Proc != 2 {
					t.Errorf("dropped delivery attributed to p%d, want p2", ev.Proc)
				}
			}
		}
	}
	if dropped < 32 {
		t.Errorf("trace recorded %d dropped deliveries, want >= 32", dropped)
	}
}

// slowTimerNode registers one far-future timer per invocation and
// responds immediately; it never sends, so every registered timer stays
// live until canceled. It keeps its Context so a test can act as a
// handler would.
type slowTimerNode struct{ ctx sim.Context }

func (n *slowTimerNode) Init(ctx sim.Context) { n.ctx = ctx }
func (n *slowTimerNode) OnInvoke(ctx sim.Context, inv sim.Invocation) {
	ctx.SetTimer(1<<20, nil)
	ctx.Respond(inv.SeqID, nil)
}
func (n *slowTimerNode) OnMessage(sim.Context, sim.ProcID, any) {}
func (n *slowTimerNode) OnTimer(sim.Context, any)               {}

// TestCrashCancelsTimers is the timer-leak regression: timers are
// attributed to their registering process, Crash cancels exactly that
// process's entries, and a timer set at the crashed process afterwards
// never becomes live.
func TestCrashCancelsTimers(t *testing.T) {
	p := rtParams(2)
	crashed := &slowTimerNode{}
	nodes := []sim.Node{&slowTimerNode{}, crashed}
	c, err := NewCluster(p, tick, sim.ZeroOffsets(2), nodes, 7)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Stop()

	mustCall(t, c, 0, "noop", nil)
	mustCall(t, c, 1, "noop", nil)
	if got := c.timerCount(); got != 2 {
		t.Fatalf("timerCount = %d before crash, want 2", got)
	}
	c.Crash(1)
	if got := c.timerCount(); got != 1 {
		t.Errorf("timerCount = %d after crashing p1, want 1 (p0's timer must survive)", got)
	}
	// A timer set on the crashed process's context after the crash must
	// never fire, not leak as a live entry.
	var id sim.TimerID
	c.Inspect(1, func() { id = crashed.ctx.SetTimer(1<<20, nil) })
	if got := c.timerCount(); got != 1 {
		t.Errorf("timerCount = %d after post-crash SetTimer, want 1 (registration must be refused)", got)
	}
	c.Inspect(1, func() { crashed.ctx.CancelTimer(id) }) // canceling the dead id is a no-op
	if got := c.timerCount(); got != 1 {
		t.Errorf("timerCount = %d after canceling unarmed id, want 1", got)
	}
}

// blockNode accepts invocations and never responds.
type blockNode struct{}

func (blockNode) Init(sim.Context)                       {}
func (blockNode) OnInvoke(sim.Context, sim.Invocation)   {}
func (blockNode) OnMessage(sim.Context, sim.ProcID, any) {}
func (blockNode) OnTimer(sim.Context, any)               {}

// TestCrashFailsPendingCall pins the unblocking contract: a Call waiting
// on an operation at the crashed process returns ErrCrashed instead of
// hanging, the pending set empties so Drain returns promptly, and the
// rest of the cluster is unaffected.
func TestCrashFailsPendingCall(t *testing.T) {
	p := rtParams(2)
	nodes := []sim.Node{blockNode{}, blockNode{}}
	c, err := NewCluster(p, tick, sim.ZeroOffsets(2), nodes, 7)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Stop()

	errc := make(chan error, 1)
	go func() {
		_, err := c.Call(1, "stuck", nil, -1)
		errc <- err
	}()
	for c.Pending() == 0 {
		time.Sleep(time.Millisecond)
	}
	c.Crash(1)
	select {
	case err := <-errc:
		if !errors.Is(err, ErrCrashed) {
			t.Errorf("blocked Call returned %v, want ErrCrashed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("blocked Call did not return after Crash")
	}
	if got := c.Pending(); got != 0 {
		t.Errorf("Pending() = %d after crash, want 0", got)
	}
	if err := c.Drain(time.Second); err != nil {
		t.Fatalf("drain: %v", err)
	}
}
