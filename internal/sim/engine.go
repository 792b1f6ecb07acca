package sim

import (
	"fmt"

	"lintime/internal/obs"
	"lintime/internal/simtime"
)

// eventKind distinguishes scheduled event types. The kinds are declared
// in StepKind order, so StepKind(k) names a kind's step.
type eventKind uint8

const (
	evInvoke eventKind = iota
	evDeliver
	evTimer
)

// event is one scheduled occurrence in the simulation. Events are value
// types stored inline in the engine's queue: scheduling an event never
// heap-allocates and popping one never chases a pointer. Every heap sift
// copies events, so fields that only one kind uses share a slot.
type event struct {
	time simtime.Time
	seq  int64 // tie-break: FIFO among simultaneous events
	proc ProcID
	kind eventKind

	// id is the invocation's SeqID (evInvoke), the timer's TimerID
	// (evTimer), or the delivery's index into trace.Msgs (evDeliver; -1
	// when message records are off).
	id int64
	// payload is the invocation's argument (evInvoke), the message
	// (evDeliver) or the timer's tag (evTimer).
	payload any
	op      string // evInvoke: the operation
	from    ProcID // evDeliver: the sender

	// span is the tracing span (operation SeqID) the event is attributed
	// to: the sender's pending operation for deliveries, the registering
	// process's pending operation for timers, and for invocations the
	// causal parent span (-1 for a local root). Deliveries and timers are
	// only stamped while a tracer is installed; -1 (or the zero value on
	// untraced runs) means unattributed. sent is the send tick of a
	// delivery.
	span int64
	sent simtime.Time
}

// rank orders simultaneous events: message deliveries before timer
// expirations before invocations. Delivering messages first is load
// bearing for timestamp-ordered algorithms: a message carrying a smaller
// timestamp that arrives at exactly the instant a stabilization timer
// fires must be enqueued before the timer's drain runs, or replicas
// execute mutators in different orders (the u+ε wait of Algorithm 1 is
// tight at this boundary when d ≤ 2u+ε).
func (k eventKind) rank() int {
	switch k {
	case evDeliver:
		return 0
	case evTimer:
		return 1
	default:
		return 2
	}
}

// eventBefore is the engine's total event order: (time, kind rank, seq).
// It is exactly the order the original container/heap implementation
// used, so run outputs are unchanged; the ordering-equivalence property
// test in engine_order_test.go pins the two against each other.
func eventBefore(a, b *event) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	if ra, rb := a.kind.rank(), b.kind.rank(); ra != rb {
		return ra < rb
	}
	return a.seq < b.seq
}

// eventQueue is a value-typed 4-ary min-heap over eventBefore. Compared
// with the previous []*event + container/heap queue it removes the
// per-event heap allocation, the any-interface boxing on every push/pop,
// and half the tree depth (a 4-ary sift touches up to three more
// comparisons per level but half as many cache lines, which wins on the
// engine's pop-heavy usage). The backing array is retained across
// Engine.Reset, so a reused engine schedules events with zero
// steady-state allocation.
type eventQueue struct {
	items []event
}

func (q *eventQueue) len() int { return len(q.items) }

// peek returns the minimum event without removing it. The pointer is
// valid only until the next push or pop.
func (q *eventQueue) peek() *event { return &q.items[0] }

// reset empties the queue, retaining capacity. Slots are zeroed so stale
// payload references do not pin memory.
func (q *eventQueue) reset() {
	clear(q.items)
	q.items = q.items[:0]
}

// push and pop sift a hole rather than swapping: each level moves one
// event into the hole and the displaced event is written once at the end,
// so a sift costs one event copy per level instead of a three-copy swap.
// Both take the event by pointer for the same reason: a value parameter
// or result would add a whole-event copy per call.
func (q *eventQueue) push(ev *event) {
	q.items = append(q.items, event{})
	i := len(q.items) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !eventBefore(ev, &q.items[parent]) {
			break
		}
		q.items[i] = q.items[parent]
		i = parent
	}
	q.items[i] = *ev
}

// pop removes the minimum event into *dst.
func (q *eventQueue) pop(dst *event) {
	*dst = q.items[0]
	n := len(q.items) - 1
	last := &q.items[n]
	// Sift the hole at the root down to where the last event belongs.
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		min := first
		end := first + 4
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if eventBefore(&q.items[c], &q.items[min]) {
				min = c
			}
		}
		if !eventBefore(&q.items[min], last) {
			break
		}
		q.items[i] = q.items[min]
		i = min
	}
	if i != n {
		q.items[i] = *last
	}
	*last = event{} // release payload references
	q.items = q.items[:n]
}

// TraceLevel selects how much of a run the engine records. Every level
// produces identical executions (event order, responses, latencies); the
// levels only drop record-keeping the caller will never read.
type TraceLevel int

const (
	// TraceFull records Steps, Msgs and Ops — everything the shifting
	// machinery, the diagram renderer, and CheckAdmissible's
	// unreceived-message check can ask for. The default.
	TraceFull TraceLevel = iota
	// TraceOps skips the per-process step views (Trace.Steps) but keeps
	// Msgs and Ops: enough for latency statistics, the linearizability
	// checker, delay-admissibility checks on complete runs, and the
	// fuzzer's event-ordering signatures (which come from the engine's
	// running step hash, not the Steps slice).
	TraceOps
	// TraceOff additionally skips message records (Trace.Msgs); only Ops
	// are kept, the minimum for a finished run's responses to be
	// observable at all.
	TraceOff
	// TraceNone keeps no completed operation either: each OpRecord lives
	// only while its operation is pending and is handed to OnRespond when
	// it completes, so a long-running engine holds O(pending) records
	// instead of one per operation ever served. Trace().Ops stays empty.
	TraceNone
)

// fnvOffset/fnvPrime are the FNV-1a 64-bit parameters; the engine
// maintains a running FNV-1a hash over the processed-event sequence so
// consumers (the fuzzer's coverage signatures) need not re-walk a
// recorded Steps slice.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// Engine drives a deterministic simulation of n nodes. Events at the same
// real time are processed in scheduling order, so runs are fully
// reproducible.
//
// An Engine may be reused across runs via Reset, which retains the event
// queue's backing array, the bookkeeping maps, and trace-capacity hints —
// the allocation profile of a reused engine is a handful of slice headers
// per run instead of a heap node per event.
type Engine struct {
	params  simtime.Params
	offsets []simtime.Duration
	net     Network
	nodes   []Node

	now      simtime.Time
	queue    eventQueue
	ctxs     []engineCtx // one reusable Context per process
	seq      int64
	timerSeq int64
	opSeq    int64
	msgCount int64
	canceled map[TimerID]bool
	pending  map[ProcID]int64 // pending op SeqID per process
	opIndex  map[int64]int    // SeqID → index into trace.Ops
	live     []OpRecord       // TraceNone: the pending op record per process
	firing   TimerID          // timer whose handler is running (-1 outside one)
	crashes  []simtime.Time   // per-proc crash times (empty = no faults)
	drops    map[int64]bool   // send ordinals lost in transit
	trace    *Trace
	started  bool
	level    TraceLevel
	stepSig  uint64 // running FNV-1a over (kind, proc) of processed events

	// High-water lengths of Steps, Msgs and Ops over all past runs.
	stepsCap, msgsCap, opsCap int

	// metrics, when non-nil, receives live engine counters; tracer, when
	// enabled, receives span waypoints. Both default off: the hot loop
	// pays one predictable nil/bool branch per event, keeping the
	// TraceOff path inside the PR 4 allocation and latency budget
	// (guarded by `make bench-compare` against BENCH_engine.json).
	metrics *EngineMetrics
	tracer  obs.Tracer
	tracing bool
	// handling is the span of the event currently being dispatched (-1
	// outside a handler). While a handler for span S runs, sends and
	// timer registrations it makes inherit S — this is what attributes a
	// quorum replica's ack to the coordinator's operation rather than to
	// the replica's own (unrelated) pending span.
	handling int64

	// OnRespond, if non-nil, is called after every operation response with
	// the completed record. Handlers may schedule further invocations (at
	// or after the current time) — this is how closed-loop workloads run.
	OnRespond func(rec OpRecord)

	// OnStep, if non-nil, is called as each event is consumed, before its
	// handler runs: kind is the event's step kind, sent the send time of a
	// delivery (zero otherwise), and crashed reports an event consumed
	// silently at a crashed process, whose handler never runs. Canceled
	// timers are skipped without a call.
	OnStep func(kind StepKind, p ProcID, sent simtime.Time, crashed bool)

	// MaxSteps bounds the number of processed events as a runaway guard.
	MaxSteps int
}

// NewEngine builds an engine. offsets must have one entry per node and
// respect the skew bound ε; net provides message delays.
func NewEngine(params simtime.Params, offsets []simtime.Duration, net Network, nodes []Node) (*Engine, error) {
	eng := &Engine{
		canceled: map[TimerID]bool{},
		pending:  map[ProcID]int64{},
		opIndex:  map[int64]int{},
		MaxSteps: 10_000_000,
	}
	if err := eng.Reset(params, offsets, net, nodes); err != nil {
		return nil, err
	}
	return eng, nil
}

// Reset rearms the engine for a fresh run with the given configuration,
// retaining the event queue's backing array, the bookkeeping maps, the
// per-process contexts, and capacity hints for the trace slices (which
// are preallocated to the largest sizes any past run reached). The trace
// returned by the previous run is NOT recycled — it remains valid after
// Reset, so results that escaped to callers are never corrupted by engine
// reuse.
// OnRespond and OnStep are cleared; MaxSteps and the trace level are
// retained.
func (e *Engine) Reset(params simtime.Params, offsets []simtime.Duration, net Network, nodes []Node) error {
	if err := params.Validate(); err != nil {
		return err
	}
	if len(nodes) != params.N {
		return fmt.Errorf("sim: %d nodes for N=%d", len(nodes), params.N)
	}
	if len(offsets) != params.N {
		return fmt.Errorf("sim: %d offsets for N=%d", len(offsets), params.N)
	}
	if err := ValidateOffsets(offsets, params.Epsilon); err != nil {
		return err
	}
	e.params = params
	e.offsets = append(e.offsets[:0], offsets...)
	e.net = net
	e.nodes = nodes
	e.now = 0
	e.queue.reset()
	if cap(e.ctxs) < params.N {
		e.ctxs = make([]engineCtx, params.N)
	}
	e.ctxs = e.ctxs[:params.N]
	for p := range e.ctxs {
		e.ctxs[p] = engineCtx{eng: e, proc: ProcID(p)}
	}
	e.seq, e.timerSeq, e.opSeq, e.msgCount = 0, 0, 0, 0
	clear(e.canceled)
	clear(e.pending)
	clear(e.opIndex)
	clear(e.live)
	e.crashes = e.crashes[:0]
	clear(e.drops)
	// Preallocate the fresh trace to the high-water sizes of all past
	// runs, not just the previous one: a run shorter than its successor
	// would otherwise send the next run's slices through a geometric
	// regrowth chain.
	if e.trace != nil {
		e.stepsCap = max(e.stepsCap, len(e.trace.Steps))
		e.msgsCap = max(e.msgsCap, len(e.trace.Msgs))
		e.opsCap = max(e.opsCap, len(e.trace.Ops))
	}
	e.trace = &Trace{
		Params:  params,
		Offsets: append([]simtime.Duration(nil), offsets...),
		Steps:   make([]StepRecord, 0, e.stepsCap),
		Msgs:    make([]MsgRecord, 0, e.msgsCap),
		Ops:     make([]OpRecord, 0, e.opsCap),
	}
	e.started = false
	e.stepSig = fnvOffset
	e.firing = -1
	e.OnRespond = nil
	e.OnStep = nil
	e.metrics = nil
	e.tracer = nil
	e.tracing = false
	e.handling = -1
	if e.MaxSteps == 0 {
		e.MaxSteps = 10_000_000
	}
	return nil
}

// SetTraceLevel selects how much of the run is recorded (default
// TraceFull). Must be called before the first event is processed.
func (e *Engine) SetTraceLevel(level TraceLevel) {
	if e.started {
		panic("sim: SetTraceLevel after the run started")
	}
	e.level = level
}

// EngineMetrics is the live-counter sink an engine reports into: events
// dispatched and the scheduled-queue high-water mark. Instruments are
// shared obs primitives, so several engines may aggregate into one set.
type EngineMetrics struct {
	Events   *obs.Counter // events dispatched (after canceled-timer skips)
	QueueMax *obs.Max     // event-queue length high-water mark
}

// SetMetrics installs the engine's metric sink (nil disables, the
// default). Cleared by Reset, like OnRespond, so pooled engines never
// report into a previous owner's instruments.
func (e *Engine) SetMetrics(m *EngineMetrics) { e.metrics = m }

// SetTracer installs a span tracer (nil disables, the default). Cleared by Reset. Spans are keyed by operation SeqID;
// deliveries and timer fires are attributed to the operation pending at
// the sending/registering process when the message or timer was created.
func (e *Engine) SetTracer(t obs.Tracer) {
	e.tracer = t
	e.tracing = t != nil
}

// Params returns the engine's model parameters.
func (e *Engine) Params() simtime.Params { return e.params }

// Now returns the current real time.
func (e *Engine) Now() simtime.Time { return e.now }

// Trace returns the (live) trace of the run.
func (e *Engine) Trace() *Trace { return e.trace }

// StepSignature returns the FNV-1a hash of the processed-event sequence
// so far: for each event, the bytes (kind, proc) in processing order —
// byte-for-byte the prefix the fuzzer's coverage signature hashes from
// Trace.Steps. Maintained at every trace level, so signature-driven
// exploration can run with step recording off.
func (e *Engine) StepSignature() uint64 { return e.stepSig }

// QueueLen returns the number of scheduled events not yet processed
// (including canceled timers that have not yet been skipped).
func (e *Engine) QueueLen() int { return e.queue.len() }

// NextTime returns the time of the earliest scheduled event, or
// simtime.Infinity when nothing is scheduled. The event may be a canceled
// timer that will be skipped; a driver pacing RunUntil against a clock
// only wakes early for it.
func (e *Engine) NextTime() simtime.Time {
	if e.queue.len() == 0 {
		return simtime.Infinity
	}
	return e.queue.peek().time
}

// Timers returns the number of scheduled timers still due to fire: not
// canceled and not at a process crashed by their fire time.
func (e *Engine) Timers() int {
	n := 0
	for i := range e.queue.items {
		ev := &e.queue.items[i]
		if ev.kind == evTimer && !e.canceled[TimerID(ev.id)] && !e.crashedAt(ev.proc, ev.time) {
			n++
		}
	}
	return n
}

// push schedules an event.
func (e *Engine) push(ev *event) {
	ev.seq = e.seq
	e.seq++
	e.queue.push(ev)
	if e.metrics != nil {
		e.metrics.QueueMax.Observe(int64(e.queue.len()))
	}
}

// InvokeAt schedules an operation invocation at process p at the given
// real time (which must not be in the past) and returns its SeqID.
func (e *Engine) InvokeAt(p ProcID, at simtime.Time, op string, arg any) int64 {
	return e.InvokeWithParent(p, at, op, arg, -1)
}

// InvokeWithParent is InvokeAt for an operation with a causal parent
// span (a client-side span carried over the wire), which an installed
// tracer records as the operation's parent edge; -1 is a local root.
func (e *Engine) InvokeWithParent(p ProcID, at simtime.Time, op string, arg any, parent int64) int64 {
	if at < e.now {
		panic(fmt.Sprintf("sim: invocation at %v is in the past (now %v)", at, e.now))
	}
	seqID := e.opSeq
	e.opSeq++
	e.push(&event{time: at, kind: evInvoke, proc: p, id: seqID, op: op, payload: arg, span: parent})
	return seqID
}

// setTimer schedules a timer event at an absolute real time. The timer is
// attributed to the registering process's pending operation (if any): the
// stabilization waits of Algorithm 1 are set while handling that
// operation's invoke or its messages.
func (e *Engine) setTimer(p ProcID, at simtime.Time, tag any) TimerID {
	id := TimerID(e.timerSeq)
	e.timerSeq++
	span := int64(-1)
	if e.tracing {
		span = e.spanFor(p)
	}
	e.push(&event{time: at, kind: evTimer, proc: p, id: int64(id), payload: tag, span: span})
	return id
}

// spanFor resolves the span a send or timer registration should be
// attributed to: the span being handled right now (quorum acks, relayed
// messages), falling back to the process's pending operation. Only
// called while tracing.
func (e *Engine) spanFor(p ProcID) int64 {
	if e.handling >= 0 {
		return e.handling
	}
	return e.tracer.CurrentSpan(int32(p))
}

// cancelTimer marks a scheduled timer so it is skipped when popped. The
// timer whose handler is running has already fired: canceling it (core's
// drain cancels the execute timer that triggered it) records nothing, so
// a long-running engine does not accumulate dead canceled entries.
func (e *Engine) cancelTimer(id TimerID) {
	if id != e.firing {
		e.canceled[id] = true
	}
}

// send schedules message delivery per the network's delay. A send whose
// ordinal is in the fault plan's drop set is recorded (Dropped, never
// received) but no delivery is scheduled and the network is never asked
// for a delay — dropped ordinals consume their slot in the global
// message count, so explicit delay vectors stay index-aligned.
func (e *Engine) send(from, to ProcID, payload any) {
	if len(e.drops) > 0 && e.drops[e.msgCount] {
		e.msgCount++
		if e.level <= TraceOps {
			e.trace.Msgs = append(e.trace.Msgs, MsgRecord{
				ID:       e.msgCount,
				From:     from,
				To:       to,
				SendTime: e.now,
				RecvTime: simtime.Infinity,
				Payload:  payload,
				Dropped:  true,
			})
		}
		return
	}
	delay := e.net.Delay(from, to, e.now, e.msgCount)
	if delay < e.params.MinDelay() || delay > e.params.D {
		panic(fmt.Sprintf("sim: network produced delay %v outside [%v, %v]",
			delay, e.params.MinDelay(), e.params.D))
	}
	e.msgCount++
	recv := e.now.Add(delay)
	msgIndex := -1
	if e.level <= TraceOps {
		e.trace.Msgs = append(e.trace.Msgs, MsgRecord{
			ID:       e.msgCount,
			From:     from,
			To:       to,
			SendTime: e.now,
			RecvTime: recv,
			Payload:  payload,
		})
		msgIndex = len(e.trace.Msgs) - 1
	}
	span := int64(-1)
	if e.tracing {
		span = e.spanFor(from)
		e.tracer.Event(span, obs.StageBroadcast, int32(from), int64(e.now))
	}
	e.push(&event{time: recv, kind: evDeliver, proc: to, from: from, payload: payload,
		id: int64(msgIndex), span: span, sent: e.now})
}

// respond records the response for a pending invocation.
func (e *Engine) respond(p ProcID, seqID int64, ret any) {
	pendingSeq, ok := e.pending[p]
	if !ok || pendingSeq != seqID {
		panic(fmt.Sprintf("sim: p%d responded to op %d which is not pending", p, seqID))
	}
	delete(e.pending, p)
	var rec *OpRecord
	if e.level == TraceNone {
		rec = &e.live[p]
	} else {
		rec = &e.trace.Ops[e.opIndex[seqID]]
	}
	rec.Ret = ret
	rec.RespondTime = e.now
	done := *rec
	if e.level == TraceNone {
		*rec = OpRecord{}
	}
	if e.tracing {
		e.tracer.OpEnd(int32(p), seqID, int64(e.now))
	}
	if e.OnRespond != nil {
		e.OnRespond(done)
	}
}

// Run processes events until the queue drains (eventual quiescence) and
// returns the trace.
func (e *Engine) Run() *Trace { return e.RunUntil(simtime.Infinity) }

// RunUntil processes events with time ≤ limit and returns the trace.
func (e *Engine) RunUntil(limit simtime.Time) *Trace {
	if !e.started {
		e.started = true
		for p := range e.nodes {
			e.nodes[p].Init(&e.ctxs[p])
		}
	}
	steps := 0
	var ev event
	for e.queue.len() > 0 && e.queue.peek().time <= limit {
		e.queue.pop(&ev)
		if ev.kind == evTimer && e.canceled[TimerID(ev.id)] {
			delete(e.canceled, TimerID(ev.id))
			continue
		}
		if e.crashedAt(ev.proc, ev.time) {
			// Crash-stop: the process takes no step. A suppressed
			// delivery is marked Dropped (its scheduled RecvTime is kept
			// as the drop instant); suppressed timers and invocations
			// vanish — in particular a suppressed invocation leaves NO
			// OpRecord, because an operation the process never started
			// must not be linearizable as pending.
			if ev.kind == evDeliver {
				if ev.id >= 0 {
					e.trace.Msgs[ev.id].Dropped = true
				}
				if e.tracing {
					e.tracer.Event(ev.span, obs.StageDropped, int32(ev.proc), int64(ev.time))
				}
			}
			if e.OnStep != nil {
				e.OnStep(StepKind(ev.kind), ev.proc, ev.sent, true)
			}
			continue
		}
		if ev.time < e.now {
			panic("sim: time went backwards")
		}
		e.now = ev.time
		steps++
		if steps > e.MaxSteps {
			panic(fmt.Sprintf("sim: exceeded MaxSteps=%d (runaway algorithm?)", e.MaxSteps))
		}
		e.stepSig = (e.stepSig ^ uint64(byte(ev.kind))) * fnvPrime
		e.stepSig = (e.stepSig ^ uint64(byte(ev.proc))) * fnvPrime
		if e.metrics != nil {
			e.metrics.Events.Inc()
		}
		if e.OnStep != nil {
			e.OnStep(StepKind(ev.kind), ev.proc, ev.sent, false)
		}
		ctx := &e.ctxs[ev.proc]
		switch ev.kind {
		case evInvoke:
			inv := Invocation{SeqID: ev.id, Op: ev.op, Arg: ev.payload}
			if prev, busy := e.pending[ev.proc]; busy {
				panic(fmt.Sprintf("sim: p%d invoked op %d while op %d pending (user constraint violated)",
					ev.proc, inv.SeqID, prev))
			}
			e.pending[ev.proc] = inv.SeqID
			rec := OpRecord{
				Proc:        ev.proc,
				SeqID:       inv.SeqID,
				Op:          inv.Op,
				Arg:         inv.Arg,
				InvokeTime:  e.now,
				RespondTime: simtime.Infinity,
			}
			if e.level == TraceNone {
				if len(e.live) != len(e.nodes) {
					e.live = make([]OpRecord, len(e.nodes))
				}
				e.live[ev.proc] = rec
			} else {
				e.opIndex[inv.SeqID] = len(e.trace.Ops)
				e.trace.Ops = append(e.trace.Ops, rec)
			}
			if e.level == TraceFull {
				e.trace.Steps = append(e.trace.Steps, StepRecord{Proc: ev.proc, Time: e.now, Kind: StepInvoke})
			}
			if e.tracing {
				e.handling = inv.SeqID
				e.tracer.OpStart(int32(ev.proc), inv.SeqID, ev.span, inv.Op, int64(e.now))
			}
			e.nodes[ev.proc].OnInvoke(ctx, inv)
		case evDeliver:
			if e.level == TraceFull {
				e.trace.Steps = append(e.trace.Steps, StepRecord{Proc: ev.proc, Time: e.now, Kind: StepDeliver})
			}
			if e.tracing {
				e.handling = ev.span
				e.tracer.Deliver(ev.span, int32(ev.proc), int64(e.now), int64(ev.sent), 0)
			}
			e.nodes[ev.proc].OnMessage(ctx, ev.from, ev.payload)
		case evTimer:
			if e.level == TraceFull {
				e.trace.Steps = append(e.trace.Steps, StepRecord{Proc: ev.proc, Time: e.now, Kind: StepTimer})
			}
			if e.tracing {
				e.handling = ev.span
				e.tracer.Event(ev.span, obs.StageTimer, int32(ev.proc), int64(e.now))
			}
			e.firing = TimerID(ev.id)
			e.nodes[ev.proc].OnTimer(ctx, ev.payload)
			e.firing = -1
		}
		e.handling = -1
	}
	return e.trace
}
