// Package rtnet runs the same algorithm nodes as the virtual-time
// simulator on a *real-time* substrate built from goroutines and
// channels: every process is a goroutine consuming events from its inbox
// channel, message delays are real sleeps drawn from [d-u, d] virtual
// ticks, timers are time.Timer instances, and local clocks are wall-clock
// readings plus a constant per-process offset.
//
// The substrate exists to demonstrate that Algorithm 1 is a practical
// message-passing protocol, not just a simulation artifact: the exact
// same core.Replica values run here, with latencies that approximate the
// tick-exact virtual-time values up to scheduling jitter. The tick
// duration scales virtual ticks to wall time; choose it large enough that
// goroutine scheduling jitter stays well below one u (a millisecond-scale
// tick on an unloaded machine).
package rtnet

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"lintime/internal/classify"
	"lintime/internal/harness"
	"lintime/internal/obs"
	"lintime/internal/sim"
	"lintime/internal/simtime"
)

// DefaultInboxDepth is the per-process inbox capacity used when
// Params.InboxDepth is zero.
const DefaultInboxDepth = 1024

// Params configures a real-time cluster: the model parameters plus the
// substrate's own knobs.
type Params struct {
	simtime.Params

	// InboxDepth bounds each process's inbox channel (default
	// DefaultInboxDepth). A delivery that finds the inbox full is a
	// cluster failure (InboxOverflowError), never a silent stall: the
	// posting side runs on timer goroutines whose blocking would distort
	// every in-flight delay measurement.
	InboxDepth int

	// BatchWindow coalesces all messages a process sends to one
	// destination within this many virtual ticks into a single delivery
	// event (one wall-clock timer and one inbox post per batch instead of
	// per message). Zero disables coalescing.
	//
	// Coalescing stays inside the admissible delay envelope: a batch
	// opened at t flushes at t+w and draws its flush delay δ from
	// [d-u, d-u/2-w], so a message that joined the batch a ticks after it
	// opened is delivered with total delay (w-a)+δ ∈ [d-u, d-u/2] — the
	// same lower half of [d-u, d] the unbatched path samples (real
	// scheduling jitter only adds latency). That containment needs
	// w ≤ u/2, which NewCluster enforces. Per-operation invoke/respond
	// timestamps are unaffected: Algorithm 1 responses are driven by
	// local timers, not message arrival counts, so the per-class latency
	// formulas apply unchanged (EXPERIMENTS.md measures the trade).
	//
	// Coalescing is ignored when UseNetwork installs a deterministic
	// delay schedule: replayed networks assign per-message delays by
	// global send order and must see every message as its own delivery.
	BatchWindow simtime.Duration
}

// ErrStopped is returned by Invoke/Call after the cluster has stopped
// without a recorded failure.
var ErrStopped = errors.New("rtnet: cluster stopped")

// ErrCrashed is returned by Invoke/Call when the chosen process has been
// crashed with Crash. A crashed process is not a cluster failure: the
// rest of the cluster keeps running (that is the point of injecting the
// crash under a fault-tolerant backend).
var ErrCrashed = errors.New("rtnet: process crashed")

// InboxOverflowError reports that a bounded inbox was full when an event
// had to be delivered. It stops the cluster: overflow means the event
// loop has fallen hopelessly behind (or deadlocked), and latency numbers
// from such a run are meaningless.
type InboxOverflowError struct {
	Proc  sim.ProcID
	Depth int
}

func (e *InboxOverflowError) Error() string {
	return fmt.Sprintf("rtnet: inbox of p%d overflowed (depth %d)", e.Proc, e.Depth)
}

// Response is the completed result of an asynchronous invocation.
type Response struct {
	Proc    sim.ProcID // process the operation was invoked at
	Seq     int64      // cluster-unique invocation id
	Op      string
	Arg     any
	Ret     any
	Class   classify.Class // operation class (Mixed unless SetClasses was called)
	Invoke  simtime.Time   // virtual ticks since cluster start
	Respond simtime.Time
}

// Latency returns the observed virtual-tick latency.
func (r Response) Latency() simtime.Duration { return r.Respond.Sub(r.Invoke) }

// event is one inbox item. Events are pooled: the loop goroutine returns
// each one after handling, so steady-state traffic allocates no inbox
// items.
type event struct {
	kind    int // 0 invoke, 1 message, 2 timer, 3 inspect, 4 batch
	inv     sim.Invocation
	from    sim.ProcID
	payload any
	tag     any
	timerID sim.TimerID
	inspect func()
	done    chan struct{}
	span    int64        // owning operation's span, stamped at send/registration
	sent    simtime.Time // message send time (kind 1), for latency accounting

	// kind 4 carries a whole coalesced batch from one sender; the loop
	// delivers the payloads in order, each with its own span/sent
	// accounting, exactly as if they had arrived as consecutive kind-1
	// events.
	batch      []any
	batchSpans []int64
	batchSents []simtime.Time
}

var eventPool = sync.Pool{New: func() any { return new(event) }}

func getEvent() *event { return eventPool.Get().(*event) }

func putEvent(ev *event) {
	*ev = event{}
	eventPool.Put(ev)
}

// Cluster runs n nodes in real time.
type Cluster struct {
	params     simtime.Params
	inboxDepth int
	tick       time.Duration
	offsets    []simtime.Duration
	nodes      []sim.Node
	classes    map[string]classify.Class // read-only after Start

	inboxes  []chan *event
	start    time.Time
	wg       sync.WaitGroup
	stopped  chan struct{}
	stopOnce sync.Once

	metrics *Metrics
	tracer  obs.Tracer
	tracing bool
	// handling[p] is the span of the event p's loop is dispatching right
	// now (-1 outside a handler); it is confined to p's loop goroutine
	// (written around handler calls, read by Send/SetTimer, which only
	// run inside handlers or before Start), so no lock is needed. While a handler for
	// span S runs, sends and timer registrations inherit S — attributing a
	// quorum replica's ack to the coordinator's operation instead of the
	// replica's own pending span.
	handling []int64

	// batchers[from][to] coalesces from→to messages when batchWindow > 0;
	// nil slots on the diagonal (no self-sends). Each batcher carries its
	// own mutex and delay-draw rng: flushes run on timer goroutines, so
	// they cannot share the goroutine-confined sendRngs.
	batchWindow simtime.Duration
	batchers    [][]*batcher

	// sendRngs holds one delay-draw stream per process, seeded from the
	// cluster seed and the process id via harness.DeriveSeed. A process
	// only sends from inside its own event-loop goroutine (handlers run
	// there, and Init runs before the loops start), so each stream is
	// confined to one goroutine: no lock, and the sequence of draws a
	// process makes is reproducible regardless of how the other
	// processes are scheduled.
	sendRngs []*rand.Rand

	// crashed flags are written under mu (Crash serializes against the
	// registration paths) but read lock-free from the event loops and
	// Send; crashCh[p] is closed when p crashes so blocked Calls unstick.
	crashed []atomic.Bool
	crashCh []chan struct{}

	mu           sync.Mutex
	err          error // first failure (inbox overflow); sticky
	overflows    int64
	overflowProc int32 // process of the last inbox overflow; -1 if none
	seq          int64
	msgIdx       int64
	delays       sim.Network
	pending      map[int64]*pendingCall
	timers       map[sim.TimerID]procTimer
	timerID      sim.TimerID
}

// procTimer is a registered timer together with the process that owns
// it; the attribution is what lets Crash cancel exactly the crashed
// process's timers instead of leaking them until they fire into a dead
// inbox.
type procTimer struct {
	t    *time.Timer
	proc sim.ProcID
}

// Metrics is the substrate's instrumentation hook set. All fields must
// be non-nil when installed (use NewMetrics); a nil *Metrics (the
// default) disables instrumentation at the cost of one predictable
// branch per event.
type Metrics struct {
	Delivered  *obs.Counter // messages delivered to inboxes
	TimerFires *obs.Counter // timer events handled (live timers only)
	Overflows  *obs.Counter // inbox overflows (any value > 0 means the run failed)
	MsgLatency *obs.Hist    // observed delivery delay in virtual ticks vs the [d-u, d] envelope
	InboxMax   *obs.Max     // high-water mark of any inbox depth, observed at post time
	Crashes    *obs.Counter // processes crashed with Crash
	CrashDrops *obs.Counter // deliveries discarded because the receiver had crashed
	BatchSize  *obs.Hist    // messages per coalesced broadcast batch (Params.BatchWindow > 0)
}

// NewMetrics builds the substrate's instrument set on a registry. The
// message-latency histogram is sized to hold the whole admissible
// envelope [d-u, d] plus generous room for scheduling jitter above it.
// Optional labels come as key, value pairs and are folded into every
// instrument name (obs.WithLabel); the shard-set uses them to keep each
// shard cluster's substrate metrics distinct on one merged endpoint.
func NewMetrics(reg *obs.Registry, p simtime.Params, labels ...string) *Metrics {
	limit := 4 * int(p.D)
	if limit < 16 {
		limit = 16
	}
	name := func(base string) string {
		for i := 0; i+1 < len(labels); i += 2 {
			base = obs.WithLabel(base, labels[i], labels[i+1])
		}
		return base
	}
	return &Metrics{
		Delivered:  reg.Counter(name("rtnet_messages_delivered_total")),
		TimerFires: reg.Counter(name("rtnet_timer_fires_total")),
		Overflows:  reg.Counter(name("rtnet_inbox_overflows_total")),
		MsgLatency: reg.Hist(name("rtnet_message_latency_ticks"), limit),
		InboxMax:   reg.Max(name("rtnet_inbox_depth_max")),
		Crashes:    reg.Counter(name("crashes_injected")),
		CrashDrops: reg.Counter(name("rtnet_post_crash_drops_total")),
		// Named for the serving layer, which surfaces it on /metrics and
		// in `lintime stat`: the batch size distribution is the
		// observable half of the batch-window vs |MOP| trade.
		BatchSize: reg.Hist(name("serve_batch_size"), 256),
	}
}

// SetMetrics installs the instrumentation hooks. Must be called before
// Start.
func (c *Cluster) SetMetrics(m *Metrics) { c.metrics = m }

// SetTracer installs a span tracer (nil disables tracing). Must be
// called before Start.
func (c *Cluster) SetTracer(t obs.Tracer) {
	c.tracer = t
	c.tracing = t != nil
}

// spanFor resolves the span a send or timer registration belongs to: the
// span being handled on proc's loop right now, falling back to the
// process's pending operation. Only called while tracing, from proc's
// own goroutine.
func (c *Cluster) spanFor(proc sim.ProcID) int64 {
	if s := c.handling[proc]; s >= 0 {
		return s
	}
	return c.tracer.CurrentSpan(int32(proc))
}

type pendingCall struct {
	proc   sim.ProcID
	op     string
	arg    any
	invoke simtime.Time
	done   chan Response
}

// NewCluster builds a real-time cluster. tick is the wall-clock duration
// of one virtual tick; offsets must respect the skew bound ε.
func NewCluster(p Params, tick time.Duration, offsets []simtime.Duration, nodes []sim.Node, seed int64) (*Cluster, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if len(nodes) != p.N || len(offsets) != p.N {
		return nil, fmt.Errorf("rtnet: need %d nodes and offsets", p.N)
	}
	if err := sim.ValidateOffsets(offsets, p.Epsilon); err != nil {
		return nil, err
	}
	if tick <= 0 {
		return nil, fmt.Errorf("rtnet: tick must be positive")
	}
	depth := p.InboxDepth
	if depth == 0 {
		depth = DefaultInboxDepth
	}
	if depth < 0 {
		return nil, fmt.Errorf("rtnet: inbox depth must be positive, got %d", depth)
	}
	if p.BatchWindow < 0 {
		return nil, fmt.Errorf("rtnet: batch window must be non-negative, got %d", p.BatchWindow)
	}
	if p.BatchWindow > p.U/2 {
		return nil, fmt.Errorf("rtnet: batch window %d exceeds u/2 = %d; coalesced deliveries would leave the admissible [d-u, d] envelope",
			p.BatchWindow, p.U/2)
	}
	c := &Cluster{
		params:       p.Params,
		inboxDepth:   depth,
		batchWindow:  p.BatchWindow,
		overflowProc: -1,
		tick:         tick,
		offsets:      append([]simtime.Duration(nil), offsets...),
		nodes:        nodes,
		inboxes:      make([]chan *event, p.N),
		stopped:      make(chan struct{}),
		sendRngs:     make([]*rand.Rand, p.N),
		handling:     make([]int64, p.N),
		crashed:      make([]atomic.Bool, p.N),
		crashCh:      make([]chan struct{}, p.N),
		pending:      map[int64]*pendingCall{},
		timers:       map[sim.TimerID]procTimer{},
	}
	for i := range c.inboxes {
		c.handling[i] = -1
		c.inboxes[i] = make(chan *event, depth)
		c.sendRngs[i] = rand.New(rand.NewSource(
			harness.DeriveSeed(seed, fmt.Sprintf("rtnet/send/p%d", i))))
		c.crashCh[i] = make(chan struct{})
	}
	if c.batchWindow > 0 {
		c.batchers = make([][]*batcher, p.N)
		for from := 0; from < p.N; from++ {
			c.batchers[from] = make([]*batcher, p.N)
			for to := 0; to < p.N; to++ {
				if to == from {
					continue
				}
				c.batchers[from][to] = &batcher{rng: rand.New(rand.NewSource(
					harness.DeriveSeed(seed, fmt.Sprintf("rtnet/batch/p%d/p%d", from, to))))}
			}
		}
	}
	return c, nil
}

// batcher accumulates the messages one process sends to one destination
// during an open tick window. The first message arms the flush timer; the
// flush hands the whole accumulated slice to a single delivery timer.
type batcher struct {
	mu       sync.Mutex
	rng      *rand.Rand // flush-delay draws; owned by this batcher, used under mu
	open     bool
	payloads []any
	spans    []int64
	sents    []simtime.Time
}

// batchAdd queues a message on the from→to batcher, arming the window
// flush if this message opened the batch.
func (c *Cluster) batchAdd(from, to sim.ProcID, payload any, span int64, sent simtime.Time) {
	b := c.batchers[from][to]
	b.mu.Lock()
	b.payloads = append(b.payloads, payload)
	b.spans = append(b.spans, span)
	b.sents = append(b.sents, sent)
	if !b.open {
		b.open = true
		time.AfterFunc(time.Duration(c.batchWindow)*c.tick, func() {
			c.flushBatch(from, to, b)
		})
	}
	b.mu.Unlock()
}

// flushBatch closes the window, draws one admissible delay for the whole
// batch from [d-u, d-u/2-w] (see Params.BatchWindow for why that keeps
// every member inside [d-u, d-u/2]), and schedules the single delivery.
func (c *Cluster) flushBatch(from, to sim.ProcID, b *batcher) {
	b.mu.Lock()
	payloads, spans, sents := b.payloads, b.spans, b.sents
	b.payloads, b.spans, b.sents = nil, nil, nil
	b.open = false
	lo := c.params.MinDelay()
	hi := lo + c.params.U/2 - c.batchWindow
	delay := lo
	if hi > lo {
		delay = lo + simtime.Duration(b.rng.Int63n(int64(hi-lo)+1))
	}
	b.mu.Unlock()
	if c.metrics != nil {
		c.metrics.BatchSize.Add(int64(len(payloads)))
	}
	time.AfterFunc(time.Duration(delay)*c.tick, func() {
		ev := getEvent()
		ev.kind = 4
		ev.from = from
		ev.batch = payloads
		ev.batchSpans = spans
		ev.batchSents = sents
		c.post(to, ev)
	})
}

// SetClasses installs the operation classification used to tag responses
// (per-class latency accounting in the serving layer). Unclassified
// operations report Mixed, matching core.Replica's conservative default.
// Must be called before Start.
func (c *Cluster) SetClasses(classes map[string]classify.Class) { c.classes = classes }

// Params returns the cluster's model parameters.
func (c *Cluster) Params() simtime.Params { return c.params }

// InboxDepth returns the per-process inbox capacity.
func (c *Cluster) InboxDepth() int { return c.inboxDepth }

// Offsets returns a copy of the per-process clock offsets.
func (c *Cluster) Offsets() []simtime.Duration {
	return append([]simtime.Duration(nil), c.offsets...)
}

// Tick returns the wall-clock duration of one virtual tick.
func (c *Cluster) Tick() time.Duration { return c.tick }

// UseNetwork overrides the default random per-message delay draw with a
// deterministic sim.Network (e.g. an adversary schedule's
// sim.SequenceNetwork), so the same delay assignments that drive the
// virtual-time simulator can drive the real-time substrate. Delays are
// indexed by global send order, exactly as in sim.Engine. Returned delays
// are clamped to the lower half of [d-u, d] like the default draw: real
// scheduling jitter only adds latency, so sampling low keeps actual
// deliveries within the admissible window. Must be called before Start.
func (c *Cluster) UseNetwork(net sim.Network) { c.delays = net }

// Start launches the node goroutines and starts the cluster clock.
func (c *Cluster) Start() {
	c.start = time.Now()
	for i := range c.nodes {
		proc := sim.ProcID(i)
		c.nodes[i].Init(&rtCtx{c: c, proc: proc})
		c.wg.Add(1)
		go c.loop(proc)
	}
}

// loop is one process's event loop.
func (c *Cluster) loop(proc sim.ProcID) {
	defer c.wg.Done()
	ctx := &rtCtx{c: c, proc: proc}
	for {
		select {
		case <-c.stopped:
			return
		case ev := <-c.inboxes[proc]:
			// A crashed process keeps draining its inbox — in-flight
			// deliveries and timer fires land in a bounded channel, and
			// letting them pile up would eventually blame an
			// InboxOverflowError on a process that is merely dead — but
			// nothing is handled: deliveries are recorded as dropped,
			// timer fires are discarded (Crash already unregistered the
			// entries), and only Inspect still runs so state checks can
			// look at the corpse.
			if c.crashed[proc].Load() && ev.kind != 3 {
				if ev.kind == 1 {
					if c.metrics != nil {
						c.metrics.CrashDrops.Inc()
					}
					if c.tracing {
						c.tracer.Event(ev.span, obs.StageDropped, int32(proc), int64(c.now()))
					}
				}
				if ev.kind == 4 {
					if c.metrics != nil {
						c.metrics.CrashDrops.Add(int64(len(ev.batch)))
					}
					if c.tracing {
						for _, span := range ev.batchSpans {
							c.tracer.Event(span, obs.StageDropped, int32(proc), int64(c.now()))
						}
					}
				}
				putEvent(ev)
				continue
			}
			switch ev.kind {
			case 0:
				if c.tracing {
					c.handling[proc] = ev.inv.SeqID
					c.tracer.OpStart(int32(proc), ev.inv.SeqID, ev.span, ev.inv.Op, int64(c.now()))
				}
				c.nodes[proc].OnInvoke(ctx, ev.inv)
			case 1:
				if c.metrics != nil {
					c.metrics.Delivered.Inc()
					c.metrics.MsgLatency.Add(int64(c.now().Sub(ev.sent)))
				}
				if c.tracing {
					c.handling[proc] = ev.span
					c.tracer.Deliver(ev.span, int32(proc), int64(c.now()), int64(ev.sent), 0)
				}
				c.nodes[proc].OnMessage(ctx, ev.from, ev.payload)
			case 2:
				c.mu.Lock()
				_, live := c.timers[ev.timerID]
				delete(c.timers, ev.timerID)
				c.mu.Unlock()
				if live {
					if c.metrics != nil {
						c.metrics.TimerFires.Inc()
					}
					if c.tracing {
						c.handling[proc] = ev.span
						c.tracer.Event(ev.span, obs.StageTimer, int32(proc), int64(c.now()))
					}
					c.nodes[proc].OnTimer(ctx, ev.tag)
				}
			case 3:
				ev.inspect()
				close(ev.done)
			case 4:
				now := c.now()
				// Batch-window residency: the batch's effective send instant
				// is its last joiner's — earlier members spent (maxSent −
				// sent_i) ticks parked in the window, not in flight.
				var maxSent simtime.Time
				if c.tracing {
					for _, s := range ev.batchSents {
						if s > maxSent {
							maxSent = s
						}
					}
				}
				for i, payload := range ev.batch {
					if c.metrics != nil {
						c.metrics.Delivered.Inc()
						c.metrics.MsgLatency.Add(int64(now.Sub(ev.batchSents[i])))
					}
					if c.tracing {
						c.handling[proc] = ev.batchSpans[i]
						c.tracer.Deliver(ev.batchSpans[i], int32(proc), int64(now),
							int64(ev.batchSents[i]), int64(maxSent.Sub(ev.batchSents[i])))
					}
					c.nodes[proc].OnMessage(ctx, ev.from, payload)
				}
			}
			if c.tracing {
				c.handling[proc] = -1
			}
			putEvent(ev)
		}
	}
}

// fail records the first cluster failure and stops the cluster.
func (c *Cluster) fail(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	c.mu.Unlock()
	c.stopOnce.Do(func() { close(c.stopped) })
}

// Err returns the first failure the cluster recorded (an
// *InboxOverflowError), or nil after a clean run or clean stop.
func (c *Cluster) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// Stop terminates the cluster. Pending invocations never complete.
// Stopping an already-stopped cluster is a no-op.
func (c *Cluster) Stop() {
	c.stopOnce.Do(func() { close(c.stopped) })
	c.mu.Lock()
	for id, t := range c.timers {
		t.t.Stop()
		delete(c.timers, id)
	}
	c.mu.Unlock()
	c.wg.Wait()
}

// Crash kills one process mid-run: its registered timers are canceled,
// its pending invocations fail with ErrCrashed, and from the next inbox
// event on it handles nothing (deliveries are drained and recorded as
// dropped, never delivered to the node). The crash lands on an event
// boundary: an event being handled at the moment of the call completes,
// and its sends are already in flight — exactly a process that stopped
// between steps. The rest of the cluster keeps running; whether live
// operations still complete is the backend's crash-tolerance story, not
// the substrate's. Crashing a crashed process is a no-op.
func (c *Cluster) Crash(proc sim.ProcID) {
	c.mu.Lock()
	if c.crashed[proc].Swap(true) {
		c.mu.Unlock()
		return
	}
	for id, t := range c.timers {
		if t.proc == proc {
			t.t.Stop()
			delete(c.timers, id)
		}
	}
	for seqID, call := range c.pending {
		if call.proc == proc {
			delete(c.pending, seqID)
		}
	}
	c.mu.Unlock()
	close(c.crashCh[proc])
	if c.metrics != nil {
		c.metrics.Crashes.Inc()
	}
}

// Crashed reports whether a process has been crashed.
func (c *Cluster) Crashed(proc sim.ProcID) bool { return c.crashed[proc].Load() }

// Pending returns the number of invocations that have not yet responded.
func (c *Cluster) Pending() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pending)
}

// Drain waits until every pending invocation has responded, then stops
// the cluster: node goroutines exit and remaining timers are canceled, in
// that order. Callers must stop submitting new invocations first — an
// invocation submitted during a drain is still served and merely extends
// the wait. If the cluster fails mid-drain (inbox overflow) the failure
// is returned immediately; if the pending set has not emptied by the
// timeout, the cluster is stopped anyway (abandoning the stragglers) and
// an error is returned.
func (c *Cluster) Drain(timeout time.Duration) error {
	poll := c.tick
	if poll < time.Millisecond {
		poll = time.Millisecond
	}
	if poll > 10*time.Millisecond {
		poll = 10 * time.Millisecond
	}
	deadline := time.Now().Add(timeout)
	for c.Pending() > 0 {
		if err := c.Err(); err != nil {
			c.Stop()
			return err
		}
		if time.Now().After(deadline) {
			n := c.Pending()
			c.Stop()
			return fmt.Errorf("rtnet: drain timed out with %d operations pending", n)
		}
		time.Sleep(poll)
	}
	c.Stop()
	if err := c.Err(); err != nil {
		return err
	}
	return nil
}

// timerCount returns the number of registered timers that have neither
// fired nor been canceled; the map must drain as timers fire.
func (c *Cluster) timerCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.timers)
}

// now returns the elapsed virtual time since Start.
func (c *Cluster) now() simtime.Time {
	return simtime.Time(time.Since(c.start) / c.tick)
}

// Invoke submits an operation at a process and returns a channel carrying
// its response. The caller must respect the one-pending-op-per-process
// rule of the model. parent is the causal parent span — the client-side
// span (propagated over the wire protocols) the new operation's root
// span points back to — or -1 for a local root; it only matters while a
// tracer is installed. A non-nil error means the invocation was not
// submitted: the cluster has stopped (ErrStopped) or failed.
func (c *Cluster) Invoke(proc sim.ProcID, op string, arg any, parent int64) (<-chan Response, error) {
	done := make(chan Response, 1)
	c.mu.Lock()
	// Checked under mu so a concurrent Crash either sees this entry in
	// its pending sweep or this invoke sees the flag — never a pending
	// entry that outlives the crash and wedges Drain.
	if c.crashed[proc].Load() {
		c.mu.Unlock()
		return nil, ErrCrashed
	}
	seqID := c.seq
	c.seq++
	c.pending[seqID] = &pendingCall{proc: proc, op: op, arg: arg, invoke: c.now(), done: done}
	c.mu.Unlock()
	ev := getEvent()
	ev.kind = 0
	ev.inv = sim.Invocation{SeqID: seqID, Op: op, Arg: arg}
	ev.span = parent // kind-0 events carry the causal parent in span
	if err := c.post(proc, ev); err != nil {
		c.mu.Lock()
		delete(c.pending, seqID)
		c.mu.Unlock()
		return nil, err
	}
	return done, nil
}

// Call invokes (see Invoke for parent) and waits for the response. It
// returns the cluster's recorded failure (or ErrStopped) if the cluster
// stops before the response arrives.
func (c *Cluster) Call(proc sim.ProcID, op string, arg any, parent int64) (Response, error) {
	ch, err := c.Invoke(proc, op, arg, parent)
	if err != nil {
		return Response{}, err
	}
	select {
	case resp := <-ch:
		return resp, nil
	case <-c.crashCh[proc]:
		// The response may have raced with the crash.
		select {
		case resp := <-ch:
			return resp, nil
		default:
		}
		return Response{}, ErrCrashed
	case <-c.stopped:
		// The response may have raced with the stop.
		select {
		case resp := <-ch:
			return resp, nil
		default:
		}
		if err := c.Err(); err != nil {
			return Response{}, err
		}
		return Response{}, ErrStopped
	}
}

// Inspect runs f inside the process's event loop and waits for it,
// establishing the happens-before edge needed to read node state safely
// (e.g. replica fingerprints for convergence checks).
func (c *Cluster) Inspect(proc sim.ProcID, f func()) {
	done := make(chan struct{})
	ev := getEvent()
	ev.kind = 3
	ev.inspect = f
	ev.done = done
	if c.post(proc, ev) != nil {
		return
	}
	select {
	case <-done:
	case <-c.stopped:
	}
}

// post delivers an event to a process inbox without ever blocking: the
// posting side includes timer goroutines whose stall would corrupt every
// in-flight delay. A full inbox is recorded as a sticky cluster failure
// (InboxOverflowError) and stops the cluster; posts after a stop return
// ErrStopped. In both failure cases the event is recycled, not delivered.
func (c *Cluster) post(proc sim.ProcID, ev *event) error {
	select {
	case c.inboxes[proc] <- ev:
		if c.metrics != nil {
			c.metrics.InboxMax.Observe(int64(len(c.inboxes[proc])))
		}
		return nil
	default:
	}
	putEvent(ev)
	select {
	case <-c.stopped:
		return ErrStopped
	default:
	}
	c.mu.Lock()
	c.overflows++
	c.overflowProc = int32(proc)
	c.mu.Unlock()
	if c.metrics != nil {
		c.metrics.Overflows.Inc()
	}
	err := &InboxOverflowError{Proc: proc, Depth: c.inboxDepth}
	c.fail(err)
	return err
}

// Overflows returns how many inbox overflows the cluster has recorded.
// Any value above zero means the cluster failed (the first overflow is
// sticky), but posts racing with the failure may each count one.
func (c *Cluster) Overflows() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.overflows
}

// LastOverflowProc returns the process whose inbox overflowed most
// recently, or -1 if no overflow has occurred.
func (c *Cluster) LastOverflowProc() int32 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.overflowProc
}

// InboxLen returns the instantaneous depth of a process's inbox — the
// live per-process gauge the serving layer exports.
func (c *Cluster) InboxLen(proc sim.ProcID) int { return len(c.inboxes[proc]) }

// rtCtx implements sim.Context over the real-time substrate.
type rtCtx struct {
	c    *Cluster
	proc sim.ProcID
}

func (x *rtCtx) ID() sim.ProcID    { return x.proc }
func (x *rtCtx) N() int            { return len(x.c.nodes) }
func (x *rtCtx) Now() simtime.Time { return x.c.now() }
func (x *rtCtx) LocalTime() simtime.Time {
	return x.c.now().Add(x.c.offsets[x.proc])
}

func (x *rtCtx) SetTimer(after simtime.Duration, tag any) sim.TimerID {
	if after < 0 {
		panic(fmt.Sprintf("rtnet: negative timer %v", after))
	}
	proc := x.proc
	// Allocate the id and register the timer in one critical section:
	// a short timer can fire and have its event consumed before SetTimer
	// returns, and the event loop treats an unregistered id as canceled —
	// registering after arming both dropped the firing and leaked the
	// entry, since the fire-side delete had already run.
	span := int64(-1)
	if x.c.tracing {
		// The registering process is handling an event right now; the
		// timer belongs to that event's span (falling back to the
		// process's pending operation).
		span = x.c.spanFor(proc)
	}
	x.c.mu.Lock()
	x.c.timerID++
	id := x.c.timerID
	// A handler can race with Crash: it was already running when the
	// crash landed, and registering its timer now would leak an entry no
	// fire or sweep will ever delete. Hand back a fresh id that was never
	// armed — canceling it is a no-op, exactly like a timer that already
	// fired.
	if x.c.crashed[proc].Load() {
		x.c.mu.Unlock()
		return id
	}
	x.c.timers[id] = procTimer{proc: proc, t: time.AfterFunc(time.Duration(after)*x.c.tick, func() {
		ev := getEvent()
		ev.kind = 2
		ev.timerID = id
		ev.tag = tag
		ev.span = span
		x.c.post(proc, ev)
	})}
	x.c.mu.Unlock()
	return id
}

func (x *rtCtx) SetTimerAtLocal(localTime simtime.Time, tag any) sim.TimerID {
	delta := localTime.Sub(x.LocalTime())
	if delta < 0 {
		delta = 0
	}
	return x.SetTimer(delta, tag)
}

func (x *rtCtx) CancelTimer(id sim.TimerID) {
	x.c.mu.Lock()
	if t, ok := x.c.timers[id]; ok {
		t.t.Stop()
		delete(x.c.timers, id)
	}
	x.c.mu.Unlock()
}

func (x *rtCtx) Send(to sim.ProcID, payload any) {
	if to == x.proc {
		panic("rtnet: self-send")
	}
	// Draw a delay from the *lower half* of [d-u, d]: real scheduling
	// jitter only adds latency, so sampling low keeps actual deliveries
	// within the admissible window.
	// With coalescing on (and no deterministic replay network installed),
	// the message joins the open from→to batch instead of getting its own
	// delay draw and timer; the batcher's flush draw keeps it inside the
	// same admissible envelope.
	if x.c.batchWindow > 0 && x.c.delays == nil {
		from := x.proc
		sent := x.c.now()
		span := int64(-1)
		if x.c.tracing {
			span = x.c.spanFor(from)
			x.c.tracer.Event(span, obs.StageBroadcast, int32(from), int64(sent))
		}
		x.c.batchAdd(from, to, payload, span, sent)
		return
	}
	lo := x.c.params.MinDelay()
	hi := lo + x.c.params.U/2
	var delay simtime.Duration
	if x.c.delays != nil {
		// Rule networks are indexed by global send order, so the index
		// counter stays shared (and locked) across processes.
		x.c.mu.Lock()
		idx := x.c.msgIdx
		x.c.msgIdx++
		delay = x.c.delays.Delay(x.proc, to, x.c.now(), idx)
		x.c.mu.Unlock()
		if delay < lo {
			delay = lo
		}
		if delay > hi {
			delay = hi
		}
	} else {
		// Per-process stream, confined to this process's event-loop
		// goroutine (see the sendRngs field comment): no lock, and the
		// draws a process sees do not depend on the other processes'
		// scheduling.
		delay = lo + simtime.Duration(x.c.sendRngs[x.proc].Int63n(int64(hi-lo)+1))
	}
	from := x.proc
	sent := x.c.now()
	span := int64(-1)
	if x.c.tracing {
		span = x.c.spanFor(from)
		x.c.tracer.Event(span, obs.StageBroadcast, int32(from), int64(sent))
	}
	time.AfterFunc(time.Duration(delay)*x.c.tick, func() {
		ev := getEvent()
		ev.kind = 1
		ev.from = from
		ev.payload = payload
		ev.span = span
		ev.sent = sent
		x.c.post(to, ev)
	})
}

func (x *rtCtx) Broadcast(payload any) {
	for p := 0; p < x.N(); p++ {
		if sim.ProcID(p) != x.proc {
			x.Send(sim.ProcID(p), payload)
		}
	}
}

// Tracer exposes the cluster's installed tracer (nil when tracing is
// off), for algorithms that record protocol-phase child spans.
func (x *rtCtx) Tracer() obs.Tracer { return x.c.tracer }

func (x *rtCtx) Respond(seqID int64, ret any) {
	x.c.mu.Lock()
	call, ok := x.c.pending[seqID]
	delete(x.c.pending, seqID)
	now := x.c.now()
	x.c.mu.Unlock()
	if !ok {
		panic(fmt.Sprintf("rtnet: response for unknown op %d", seqID))
	}
	if x.c.tracing {
		x.c.tracer.OpEnd(int32(call.proc), seqID, int64(now))
	}
	class := classify.Mixed
	if c, found := x.c.classes[call.op]; found {
		class = c
	}
	call.done <- Response{Proc: call.proc, Seq: seqID, Op: call.op, Arg: call.arg,
		Ret: ret, Class: class, Invoke: call.invoke, Respond: now}
}
