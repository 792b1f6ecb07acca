package serve

import (
	"net"
	"sync"
	"testing"
	"time"

	"lintime/internal/adt"
	"lintime/internal/classify"
	"lintime/internal/harness"
	"lintime/internal/lincheck"
	"lintime/internal/rtnet"
	"lintime/internal/simtime"
	"lintime/internal/spec"
)

// testConfig keeps virtual magnitudes small so wall-clock runs stay
// short: d = 40 ticks at 1ms/tick → ~40ms operation latencies.
func testConfig(n int) Config {
	u := simtime.Duration(20)
	return Config{
		Params: simtime.Params{
			N: n, D: 40, U: u,
			Epsilon: simtime.OptimalEpsilon(n, u), X: 10,
		},
		TypeName: "queue",
		Tick:     time.Millisecond,
		Offsets:  harness.OffSpread,
		Seed:     7,
	}
}

func startServer(t *testing.T, n int) *Server {
	t.Helper()
	s, err := New(testConfig(n))
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	t.Cleanup(func() { s.Drain(30 * time.Second) })
	return s
}

func TestServerCallBasics(t *testing.T) {
	s := startServer(t, 3)
	if r, err := s.Call(adt.OpEnqueue, 7); err != nil || r.Ret != nil {
		t.Errorf("enqueue = (%v, %v)", r.Ret, err)
	} else if r.Class != classify.PureMutator {
		t.Errorf("enqueue class = %v, want MOP", r.Class)
	}
	// Let replication settle, then observe the element.
	time.Sleep(5 * 40 * time.Millisecond)
	if r, err := s.Call(adt.OpPeek, nil); err != nil || !spec.ValuesEqual(r.Ret, 7) {
		t.Errorf("peek = (%v, %v), want 7", r.Ret, err)
	}
	if r, err := s.Call(adt.OpDequeue, nil); err != nil || !spec.ValuesEqual(r.Ret, 7) {
		t.Errorf("dequeue = (%v, %v), want 7", r.Ret, err)
	} else if r.Class != classify.Mixed {
		t.Errorf("dequeue class = %v, want OOP", r.Class)
	}
	st := s.Stats()
	if st.Ops != 3 {
		t.Errorf("stats ops = %d, want 3", st.Ops)
	}
	for _, class := range []string{"AOP", "MOP", "OOP"} {
		if q, ok := st.PerClass[class]; !ok || q.Count != 1 {
			t.Errorf("per-class stats missing %s: %+v", class, st.PerClass)
		}
	}
}

func TestServerRejectsUnknownOp(t *testing.T) {
	s := startServer(t, 2)
	if _, err := s.Call("pop", nil); err == nil {
		t.Error("unknown op should error")
	}
}

func TestServerNotStarted(t *testing.T) {
	s, err := New(testConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Call(adt.OpEnqueue, 1); err == nil {
		t.Error("call before Start should error")
	}
	if err := s.Drain(time.Second); err != nil {
		t.Errorf("drain of never-started server: %v", err)
	}
}

func TestServerDrainRefusesNewCalls(t *testing.T) {
	s := startServer(t, 2)
	if _, err := s.Call(adt.OpEnqueue, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Drain(30 * time.Second); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if _, err := s.Call(adt.OpEnqueue, 2); err != ErrDraining {
		t.Errorf("call after drain = %v, want ErrDraining", err)
	}
	// Idempotent.
	if err := s.Drain(time.Second); err != nil {
		t.Errorf("second drain: %v", err)
	}
}

func TestServerConcurrentCallsLinearizable(t *testing.T) {
	s := startServer(t, 3)
	const clients, opsEach = 6, 5
	var mu sync.Mutex
	var history []lincheck.Op
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < opsEach; n++ {
				var r rtnet.Response
				var err error
				switch n % 3 {
				case 0:
					r, err = s.Call(adt.OpEnqueue, c*100+n)
				case 1:
					r, err = s.Call(adt.OpPeek, nil)
				default:
					r, err = s.Call(adt.OpDequeue, nil)
				}
				if err != nil {
					t.Errorf("client %d: %v", c, err)
					return
				}
				mu.Lock()
				history = append(history, lincheck.Op{
					ID: int(r.Seq), Name: r.Op, Arg: r.Arg, Ret: r.Ret,
					Invoke: r.Invoke, Respond: r.Respond,
				})
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	dt, _ := adt.Lookup("queue")
	if !lincheck.Check(dt, history).Linearizable {
		t.Errorf("served history not linearizable (%d ops)", len(history))
	}
	if got := len(s.Trace().Ops); got != clients*opsEach {
		t.Errorf("trace has %d ops, want %d", got, clients*opsEach)
	}
}

func TestServerTCPRoundtrip(t *testing.T) {
	s := startServer(t, 3)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve(ln) }()

	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if r, err := c.Call(adt.OpEnqueue, 42); err != nil || r.Ret != nil {
		t.Fatalf("remote enqueue = (%v, %v)", r.Ret, err)
	} else {
		if r.Class != classify.PureMutator {
			t.Errorf("remote class = %v, want MOP", r.Class)
		}
		if r.Latency() <= 0 {
			t.Errorf("remote latency = %v, want > 0", r.Latency())
		}
	}
	time.Sleep(5 * 40 * time.Millisecond)
	if r, err := c.Call(adt.OpDequeue, nil); err != nil || !spec.ValuesEqual(r.Ret, 42) {
		t.Errorf("remote dequeue = (%v, %v), want 42", r.Ret, err)
	}
	if _, err := c.Call("pop", nil); err == nil {
		t.Error("remote unknown op should error")
	}

	// Pipelined concurrent calls over one connection.
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := c.Call(adt.OpEnqueue, i); err != nil {
				t.Errorf("pipelined call %d: %v", i, err)
			}
		}()
	}
	wg.Wait()

	if err := s.Drain(30 * time.Second); err != nil {
		t.Fatalf("drain: %v", err)
	}
	select {
	case err := <-serveDone:
		if err != nil {
			t.Errorf("Serve returned %v after drain, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Error("Serve did not return after drain")
	}
}

func TestRunLoadInProcess(t *testing.T) {
	s := startServer(t, 3)
	sum, err := RunLoad(s, s.Type(), s.Config().Params, s.Config().Tick, LoadConfig{
		Clients:      4,
		OpsPerClient: 6,
		Seed:         11,
		Mix: []harness.OpPick{
			{Op: adt.OpEnqueue, Weight: 2},
			{Op: adt.OpDequeue, Weight: 1},
			{Op: adt.OpPeek, Weight: 1},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum.TotalOps != 4*6 {
		t.Errorf("total ops = %d, want 24", sum.TotalOps)
	}
	total := 0
	for _, n := range sum.OpCounts {
		total += n
	}
	if total != sum.TotalOps {
		t.Errorf("op counts sum to %d, want %d", total, sum.TotalOps)
	}
	p := s.Config().Params
	for name, rep := range sum.PerClass {
		if rep.Latency.Count == 0 {
			t.Errorf("class %s has no samples", name)
		}
		if rep.Latency.Min < int64(p.X) {
			t.Errorf("class %s min latency %d below any formula", name, rep.Latency.Min)
		}
		if !rep.WithinBudget {
			t.Errorf("class %s p99 %d exceeds formula %d + budget %d",
				name, rep.Latency.P99, rep.FormulaTicks, rep.BudgetTicks)
		}
	}
	if !sum.SLOMet() {
		t.Error("SLO not met")
	}
}

func TestRunLoadValidation(t *testing.T) {
	s := startServer(t, 2)
	p := s.Config().Params
	if _, err := RunLoad(s, s.Type(), p, time.Millisecond, LoadConfig{Clients: 0, OpsPerClient: 1}); err == nil {
		t.Error("zero clients should error")
	}
	if _, err := RunLoad(s, s.Type(), p, time.Millisecond, LoadConfig{Clients: 1}); err == nil {
		t.Error("no duration and no op count should error")
	}
	if _, err := RunLoad(s, s.Type(), p, time.Millisecond, LoadConfig{
		Clients: 1, OpsPerClient: 1, Mix: []harness.OpPick{{Op: "bogus", Weight: 1}},
	}); err == nil {
		t.Error("unknown mix op should error")
	}
}

func TestNewValidation(t *testing.T) {
	cfg := testConfig(2)
	cfg.TypeName = "bogus"
	if _, err := New(cfg); err == nil {
		t.Error("unknown type should error")
	}
	cfg = testConfig(2)
	cfg.Params.U = cfg.Params.D + 1
	if _, err := New(cfg); err == nil {
		t.Error("invalid params should error")
	}
	cfg = testConfig(2)
	cfg.Offsets = "bogus"
	if _, err := New(cfg); err == nil {
		t.Error("unknown offsets should error")
	}
}

// TestServerOpCheckAllocationFree pins the per-call op-name check on a
// shard's keyed type: it reads a set built once in New, so it allocates
// nothing, and it still rejects unknown names with the same error.
func TestServerOpCheckAllocationFree(t *testing.T) {
	cfg := testConfig(2)
	cfg.DataType = adt.NewKeyed(adt.NewQueue())
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	t.Cleanup(func() { s.Drain(30 * time.Second) })
	for _, op := range []string{adt.OpEnqueue, adt.OpDequeue, adt.OpPeek} {
		if !s.hasOp(op) {
			t.Errorf("hasOp(%q) = false", op)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { s.hasOp(adt.OpDequeue) }); allocs != 0 {
		t.Errorf("op check allocates %.1f times per call, want 0", allocs)
	}
	_, err = s.Call("pop", nil)
	if want := `serve: type keyed-queue has no operation "pop"`; err == nil || err.Error() != want {
		t.Errorf("unknown op error = %v, want %q", err, want)
	}
}

// TestServerDispatchesToFreeReplica pins dispatch to the next free
// replica: with n=2, one replica busy on a long mixed operation and the
// other just freed by a short one, a third call must start on the free
// replica at once. Blind round-robin queued it behind the long
// operation, so its invocation came after the long one's response.
func TestServerDispatchesToFreeReplica(t *testing.T) {
	// d = 100 ticks widens the gap between the long op's d+ε = 110 ticks
	// and the short ops' X+ε = 20, so wall-clock jitter cannot close it.
	cfg := testConfig(2)
	cfg.Params.D = 100
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	t.Cleanup(func() { s.Drain(30 * time.Second) })
	long := make(chan rtnet.Response, 1)
	go func() {
		r, err := s.Call(adt.OpDequeue, nil) // OOP
		if err != nil {
			t.Error(err)
		}
		long <- r
	}()
	// Let the long operation reach its replica before the short one.
	time.Sleep(10 * time.Millisecond)
	short, err := s.Call(adt.OpEnqueue, 1) // MOP
	if err != nil {
		t.Fatal(err)
	}
	third, err := s.Call(adt.OpEnqueue, 2)
	if err != nil {
		t.Fatal(err)
	}
	l := <-long
	if short.Proc == l.Proc {
		t.Fatalf("short op ran on p%d behind the long op; want the other replica", short.Proc)
	}
	if third.Invoke >= l.Respond {
		t.Errorf("third call invoked at %v on p%d, after the long op responded at %v on p%d: it waited for a busy replica",
			third.Invoke, third.Proc, l.Respond, l.Proc)
	}
}
