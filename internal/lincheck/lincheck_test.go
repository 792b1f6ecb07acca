package lincheck

import (
	"math/rand"
	"testing"

	"lintime/internal/adt"
	"lintime/internal/simtime"
	"lintime/internal/spec"
)

func regOp(id int, name string, arg, ret spec.Value, inv, resp simtime.Time) Op {
	return Op{ID: id, Name: name, Arg: arg, Ret: ret, Invoke: inv, Respond: resp}
}

func TestEmptyHistoryLinearizable(t *testing.T) {
	res := Check(adt.NewRegister(0), nil)
	if !res.Linearizable {
		t.Error("empty history must be linearizable")
	}
}

func TestSequentialLegalHistory(t *testing.T) {
	dt := adt.NewRegister(0)
	h := []Op{
		regOp(0, "write", 5, nil, 0, 10),
		regOp(1, "read", nil, 5, 20, 30),
		regOp(2, "write", 7, nil, 40, 50),
		regOp(3, "read", nil, 7, 60, 70),
	}
	res := Check(dt, h)
	if !res.Linearizable {
		t.Fatal("legal sequential history must be linearizable")
	}
	if len(res.Linearization) != 4 {
		t.Errorf("linearization has %d ops", len(res.Linearization))
	}
	if !spec.Legal(dt, res.Linearization) {
		t.Error("witness linearization must be legal")
	}
}

func TestSequentialIllegalHistory(t *testing.T) {
	dt := adt.NewRegister(0)
	h := []Op{
		regOp(0, "write", 5, nil, 0, 10),
		regOp(1, "read", nil, 99, 20, 30), // wrong value
	}
	if Check(dt, h).Linearizable {
		t.Error("stale read after non-overlapping write must not linearize")
	}
}

func TestConcurrentEitherOrder(t *testing.T) {
	dt := adt.NewRegister(0)
	// write(5) overlaps read; read may return 0 or 5.
	for _, readVal := range []int{0, 5} {
		h := []Op{
			regOp(0, "write", 5, nil, 0, 100),
			regOp(1, "read", nil, readVal, 50, 60),
		}
		if !Check(dt, h).Linearizable {
			t.Errorf("concurrent read returning %d should linearize", readVal)
		}
	}
	// But not an unrelated value.
	h := []Op{
		regOp(0, "write", 5, nil, 0, 100),
		regOp(1, "read", nil, 3, 50, 60),
	}
	if Check(dt, h).Linearizable {
		t.Error("read of never-written value must not linearize")
	}
}

func TestRealTimeOrderRespected(t *testing.T) {
	dt := adt.NewRegister(0)
	// read(0) strictly after write(5): not linearizable.
	h := []Op{
		regOp(0, "write", 5, nil, 0, 10),
		regOp(1, "read", nil, 0, 20, 30),
	}
	if Check(dt, h).Linearizable {
		t.Error("read must see completed write")
	}
	// Overlapping: read(0) invoked before the write responds: fine.
	h[1].Invoke = 5
	if !Check(dt, h).Linearizable {
		t.Error("overlapping read(0) should linearize before the write")
	}
}

func TestQueueHistories(t *testing.T) {
	dt := adt.NewQueue()
	// Two concurrent enqueues then two dequeues: dequeues must see both
	// elements in some consistent order.
	ok := []Op{
		regOp(0, "enqueue", 1, nil, 0, 10),
		regOp(1, "enqueue", 2, nil, 0, 10),
		regOp(2, "dequeue", nil, 2, 20, 30),
		regOp(3, "dequeue", nil, 1, 40, 50),
	}
	if !Check(dt, ok).Linearizable {
		t.Error("dequeue order 2,1 consistent with concurrent enqueues")
	}
	bad := []Op{
		regOp(0, "enqueue", 1, nil, 0, 10),
		regOp(1, "enqueue", 2, nil, 20, 30), // strictly after first
		regOp(2, "dequeue", nil, 2, 40, 50),
		regOp(3, "dequeue", nil, 1, 60, 70),
	}
	if Check(dt, bad).Linearizable {
		t.Error("FIFO violation must not linearize")
	}
	dup := []Op{
		regOp(0, "enqueue", 1, nil, 0, 10),
		regOp(1, "dequeue", nil, 1, 20, 30),
		regOp(2, "dequeue", nil, 1, 40, 50), // element dequeued twice
	}
	if Check(dt, dup).Linearizable {
		t.Error("double dequeue must not linearize")
	}
}

func TestPendingOpMayTakeEffect(t *testing.T) {
	dt := adt.NewRegister(0)
	// A pending write may (but need not) be seen by a later read.
	h := []Op{
		{ID: 0, Name: "write", Arg: 5, Invoke: 0, Respond: simtime.Infinity},
		regOp(1, "read", nil, 5, 100, 110),
	}
	if !Check(dt, h).Linearizable {
		t.Error("pending write may take effect")
	}
	h[1].Ret = 0
	if !Check(dt, h).Linearizable {
		t.Error("pending write may also be dropped")
	}
}

func TestPendingOnlyHistory(t *testing.T) {
	dt := adt.NewRegister(0)
	h := []Op{{ID: 0, Name: "write", Arg: 1, Invoke: 0, Respond: simtime.Infinity}}
	if !Check(dt, h).Linearizable {
		t.Error("history of only pending ops is linearizable")
	}
}

func TestRMWContention(t *testing.T) {
	dt := adt.NewRMWRegister(0)
	// Two concurrent rmw(1): exactly one may return 0, the other 1.
	ok := []Op{
		regOp(0, "rmw", 1, 0, 0, 50),
		regOp(1, "rmw", 1, 1, 0, 50),
	}
	if !Check(dt, ok).Linearizable {
		t.Error("rmw returning 0 and 1 should linearize")
	}
	bad := []Op{
		regOp(0, "rmw", 1, 0, 0, 50),
		regOp(1, "rmw", 1, 0, 0, 50), // both claim the old value
	}
	if Check(dt, bad).Linearizable {
		t.Error("two rmws returning the same old value must not linearize")
	}
}

func TestTheorem2ShapeHistory(t *testing.T) {
	// The shape produced by the Theorem 2 proof: alternating peeks where
	// a later peek returns the new value and an earlier one the old value,
	// with the mutator concurrent with both: linearizable only if the
	// old-value peek precedes the new-value peek in real time order.
	dt := adt.NewQueue()
	// enqueue(7) concurrent with both peeks; peek(empty) AFTER peek(7):
	// illegal.
	h := []Op{
		regOp(0, "enqueue", 7, nil, 0, 100),
		regOp(1, "peek", nil, 7, 10, 20),
		regOp(2, "peek", nil, "empty", 30, 40),
	}
	if Check(dt, h).Linearizable {
		t.Error("old-state peek after new-state peek must not linearize")
	}
	// Reversed order is fine.
	h[1].Ret = "empty"
	h[2].Ret = 7
	if !Check(dt, h).Linearizable {
		t.Error("old-state peek before new-state peek should linearize")
	}
}

func TestSimultaneousInvocations(t *testing.T) {
	dt := adt.NewQueue()
	h := []Op{
		regOp(0, "enqueue", 1, nil, 0, 0),
		regOp(1, "enqueue", 2, nil, 0, 0),
		regOp(2, "dequeue", nil, 1, 0, 0),
	}
	// All at the same instant: all overlap, any consistent order works.
	if !Check(dt, h).Linearizable {
		t.Error("simultaneous ops should linearize in some order")
	}
}

func TestRandomSequentialHistoriesLinearize(t *testing.T) {
	// Any history generated by sequential (non-overlapping) legal
	// execution is linearizable.
	rng := rand.New(rand.NewSource(42))
	for _, name := range adt.Names() {
		dt, _ := adt.Lookup(name)
		state := dt.Initial()
		var h []Op
		tm := simtime.Time(0)
		ops := dt.Ops()
		for i := 0; i < 12; i++ {
			op := ops[rng.Intn(len(ops))]
			arg := op.Args[rng.Intn(len(op.Args))]
			ret, next := state.Apply(op.Name, arg)
			state = next
			h = append(h, Op{ID: i, Name: op.Name, Arg: arg, Ret: ret, Invoke: tm, Respond: tm + 5})
			tm += 10
		}
		if !Check(dt, h).Linearizable {
			t.Errorf("%s: sequential legal history must linearize", name)
		}
	}
}

func TestWitnessRespectsRealTimeOrder(t *testing.T) {
	dt := adt.NewQueue()
	h := []Op{
		regOp(0, "enqueue", 1, nil, 0, 10),
		regOp(1, "enqueue", 2, nil, 20, 30),
		regOp(2, "dequeue", nil, 1, 40, 50),
	}
	res := Check(dt, h)
	if !res.Linearizable {
		t.Fatal("history should linearize")
	}
	// Non-overlapping: the witness must be enqueue(1), enqueue(2),
	// dequeue.
	want := []string{"enqueue", "enqueue", "dequeue"}
	for i, in := range res.Linearization {
		if in.Op != want[i] {
			t.Errorf("witness[%d] = %s, want %s", i, in.Op, want[i])
		}
	}
	if !spec.ValuesEqual(res.Linearization[0].Arg, 1) {
		t.Error("enqueue(1) must come first")
	}
}

func TestLargeSequentialHistoryPerformance(t *testing.T) {
	// Memoization should make well-ordered histories cheap even at
	// hundreds of operations.
	dt := adt.NewCounter()
	var h []Op
	tm := simtime.Time(0)
	for i := 0; i < 300; i++ {
		if i%2 == 0 {
			h = append(h, Op{ID: i, Name: "inc", Invoke: tm, Respond: tm + 5})
		} else {
			h = append(h, Op{ID: i, Name: "read", Ret: (i + 1) / 2, Invoke: tm, Respond: tm + 5})
		}
		tm += 10
	}
	res := Check(dt, h)
	if !res.Linearizable {
		t.Fatal("long sequential history must linearize")
	}
}

func TestConcurrentBatchPerformance(t *testing.T) {
	// Overlapping batches of commuting increments: exponential naive
	// search, tamed by memoization on (set, state).
	dt := adt.NewCounter()
	var h []Op
	for i := 0; i < 12; i++ {
		h = append(h, Op{ID: i, Name: "inc", Invoke: 0, Respond: 100})
	}
	h = append(h, Op{ID: 12, Name: "read", Ret: 12, Invoke: 200, Respond: 210})
	res := Check(dt, h)
	if !res.Linearizable {
		t.Fatal("concurrent increments must linearize")
	}
}

func TestOpPendingHelper(t *testing.T) {
	if (&Op{Respond: 5}).Pending() {
		t.Error("completed op reported pending")
	}
	if !(&Op{Respond: simtime.Infinity}).Pending() {
		t.Error("pending op not reported")
	}
}
