package sim

import (
	"testing"

	"lintime/internal/obs"
	"lintime/internal/simtime"
)

// TestTraceNoneKeepsPendingRecordsOnly serves a closed loop of K
// operations at TraceNone: every response still reaches OnRespond with
// its full record, but the engine keeps no completed record, no op index
// entry and no canceled entry for the timer each handler cancels while
// it fires (core's drain does that to its own execute timer).
func TestTraceNoneKeepsPendingRecordsOnly(t *testing.T) {
	const k = 500
	var ids [2]TimerID
	var seqs [2]int64
	node := &probeNode{
		onInvoke: func(ctx Context, inv Invocation) {
			seqs[ctx.ID()] = inv.SeqID
			ids[ctx.ID()] = ctx.SetTimer(3, nil)
		},
		onTimer: func(ctx Context, _ any) {
			ctx.CancelTimer(ids[ctx.ID()])
			ctx.Respond(seqs[ctx.ID()], "done")
		},
	}
	eng := newEngine(t, testParams(2), ZeroOffsets(2), UniformNetwork{D: 100}, []Node{node, node})
	eng.SetTraceLevel(TraceNone)
	served := 0
	eng.OnRespond = func(rec OpRecord) {
		served++
		if rec.Ret != "done" || rec.Latency() != 3 || rec.Op != "op" {
			t.Fatalf("response record %+v", rec)
		}
		if served+2 <= k {
			eng.InvokeAt(rec.Proc, eng.Now(), "op", served)
		}
	}
	eng.InvokeAt(0, 0, "op", nil)
	eng.InvokeAt(1, 0, "op", nil)
	tr := eng.Run()
	if served != k {
		t.Fatalf("served %d operations, want %d", served, k)
	}
	if len(tr.Ops) != 0 || len(eng.opIndex) != 0 || len(eng.canceled) != 0 || len(eng.pending) != 0 {
		t.Fatalf("after %d operations: %d op records, %d index entries, %d canceled timers, %d pending",
			k, len(tr.Ops), len(eng.opIndex), len(eng.canceled), len(eng.pending))
	}
}

// TestDriverHooks covers what a wall-clock driver uses between RunUntil
// calls: NextTime, a causal parent on an invocation, a crash set after
// the run started (its timers stop counting, its deliveries drop and are
// reported), and OnStep.
func TestDriverHooks(t *testing.T) {
	sender := &probeNode{onInvoke: func(ctx Context, inv Invocation) {
		ctx.Send(1, "m")
		ctx.Respond(inv.SeqID, nil)
	}}
	receiver := &probeNode{onInvoke: func(ctx Context, inv Invocation) {
		ctx.SetTimer(1000, nil)
		ctx.Respond(inv.SeqID, nil)
	}}
	eng := newEngine(t, testParams(2), ZeroOffsets(2), UniformNetwork{D: 100}, []Node{sender, receiver})
	coll := obs.NewCollector(8)
	eng.SetTracer(coll)
	var steps, dropped []StepKind
	eng.OnStep = func(kind StepKind, _ ProcID, sent simtime.Time, crashed bool) {
		if !crashed {
			steps = append(steps, kind)
			return
		}
		dropped = append(dropped, kind)
		if kind == StepDeliver && sent != 10 {
			t.Errorf("dropped delivery sent at %v, want 10", sent)
		}
	}
	if got := eng.NextTime(); got != simtime.Infinity {
		t.Fatalf("NextTime on an empty queue = %v", got)
	}
	eng.InvokeAt(1, 5, "arm", nil)
	eng.InvokeWithParent(0, 10, "send", nil, 77)
	if got := eng.NextTime(); got != 5 {
		t.Fatalf("NextTime = %v, want 5", got)
	}
	eng.RunUntil(10)
	if got := eng.Timers(); got != 1 {
		t.Fatalf("Timers = %d before the crash, want 1", got)
	}
	eng.CrashAt(1, 20)
	if got := eng.Timers(); got != 0 {
		t.Fatalf("Timers = %d after crashing their process, want 0", got)
	}
	tr := eng.Run()
	if len(steps) != 2 || steps[0] != StepInvoke || steps[1] != StepInvoke ||
		len(dropped) != 2 || dropped[0] != StepDeliver || dropped[1] != StepTimer {
		t.Fatalf("steps %v, dropped %v; want two invocations, then the delivery and timer dropped", steps, dropped)
	}
	if tr.CrashTimeOf(1) != 20 || tr.CrashTimeOf(0) != simtime.Infinity {
		t.Fatalf("trace crashes = %v", tr.Crashes)
	}
	for _, tree := range coll.Trees() {
		if tree.Op != "send" {
			continue
		}
		if tree.Parent != 77 {
			t.Errorf("send's parent span = %d, want 77", tree.Parent)
		}
		var drops int
		for _, ev := range tree.Events {
			if ev.Stage == obs.StageDropped && ev.Proc == 1 {
				drops++
			}
		}
		if drops != 1 {
			t.Errorf("send's tree records %d drops at p1, want 1", drops)
		}
		return
	}
	t.Fatal("no tree for the send operation")
}
