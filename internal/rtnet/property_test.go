package rtnet_test

import (
	"fmt"
	"testing"
	"time"

	"lintime/internal/adt"
	"lintime/internal/classify"
	"lintime/internal/core"
	"lintime/internal/diagram"
	"lintime/internal/rtnet"
	"lintime/internal/serve"
	"lintime/internal/sim"
	"lintime/internal/simtime"
)

// TestLatencyWithinJitterBudget is the real-time analogue of the
// simulator's tick-exact latency assertions: across a sweep of (u, X, ε)
// configurations, one operation of each class runs on an otherwise quiet
// cluster and its observed wall-clock latency (in virtual ticks) must
// land in [formula, formula + jitter budget]:
//
//	AOP: d−X+ε    MOP: X+ε    OOP: d+ε
//
// The lower bound is exact — the engine fires timers at their virtual
// tick, and on a quiet cluster no concurrent mutator's drain can execute
// a mixed operation before its own stabilization timer. The upper bound
// allows the scheduling-jitter budget serve.JitterBudget derives from the
// tick duration. A failure prints the configuration and the space-time
// diagram of the offending run.
func TestLatencyWithinJitterBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("latency sweep uses wall-clock sleeps")
	}
	const (
		n    = 3
		d    = simtime.Duration(40)
		tick = time.Millisecond
	)
	type cfg struct{ u, x simtime.Duration }
	sweep := []cfg{
		{u: 20, x: 10}, // the serving default shape
		{u: 20, x: 0},  // fastest mutators, slowest accessors
		{u: 20, x: 26}, // X at its d−ε maximum
		{u: 10, x: 20}, // tighter delay uncertainty
		{u: 0, x: 10},  // exact delays, perfect clocks (ε = 0)
	}
	dt, _ := adt.Lookup("queue")
	classes := classify.Classify(dt, classify.DefaultConfig()).Classes()

	for _, sc := range sweep {
		p := simtime.Params{N: n, D: d, U: sc.u, Epsilon: simtime.OptimalEpsilon(n, sc.u), X: sc.x}
		t.Run(fmt.Sprintf("u=%d_x=%d_eps=%d", sc.u, sc.x, p.Epsilon), func(t *testing.T) {
			if err := p.Validate(); err != nil {
				t.Fatalf("sweep config invalid: %v", err)
			}
			nodes := make([]sim.Node, n)
			for i := range nodes {
				nodes[i] = core.NewReplica(dt, classes, core.DefaultTimers(p))
			}
			offsets := sim.SpreadOffsets(n, p.Epsilon)
			c, err := rtnet.NewCluster(p, tick, offsets, nodes, 123)
			if err != nil {
				t.Fatal(err)
			}
			c.SetClasses(classes)
			c.Start()
			defer c.Stop()

			budget := serve.JitterBudget(tick)
			settle := 2 * time.Duration(d) * tick
			var recorded []sim.OpRecord
			// One op per class, each on a quiet cluster: enqueue (MOP)
			// first so the later dequeue observes a value, with settle
			// sleeps so no mutator is still stabilizing when the next
			// operation's latency is measured.
			steps := []struct {
				op    string
				arg   any
				class classify.Class
			}{
				{adt.OpEnqueue, 7, classify.PureMutator},
				{adt.OpPeek, nil, classify.PureAccessor},
				{adt.OpDequeue, nil, classify.Mixed},
			}
			for i, step := range steps {
				r, err := c.Call(sim.ProcID(i%n), step.op, step.arg, -1)
				if err != nil {
					t.Fatalf("%s: %v", step.op, err)
				}
				recorded = append(recorded, sim.OpRecord{
					Proc: r.Proc, SeqID: r.Seq, Op: r.Op, Arg: r.Arg, Ret: r.Ret,
					InvokeTime: r.Invoke, RespondTime: r.Respond,
				})
				if r.Class != step.class {
					t.Errorf("%s classified %v, want %v", step.op, r.Class, step.class)
				}
				formula := serve.FormulaTicks(p, step.class)
				if lat := r.Latency(); lat < formula || lat > formula+budget {
					t.Errorf("%s (%v) latency %d ticks outside [%d, %d] under %+v\n%s",
						step.op, step.class, lat, formula, formula+budget, p,
						diagram.Render(&sim.Trace{Params: p, Offsets: offsets, Ops: recorded},
							diagram.Options{SuppressMessages: true}))
				}
				time.Sleep(settle)
			}
		})
	}
}
