// Package rtnet runs the simulator's algorithm nodes in real time: one
// loop goroutine per cluster owns a sim.Engine and paces it against a
// monotonic clock, processing virtual tick t no earlier than t ticks of
// wall time after Start. Sends and timers are engine queue entries,
// invocations are stamped with the tick at which the loop picks them up,
// and a crash is the engine's crash-stop. Every run is thus an
// admissible execution of the paper's model however the host schedules
// the loop: host lag shows only as wall-clock latency, never in the
// virtual stamps Algorithm 1's correctness rests on.
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

// ErrStopped is returned by Invoke/Call once the cluster has stopped.
var ErrStopped = errors.New("rtnet: cluster stopped")

// ErrCrashed is returned by Invoke/Call at a process crashed with Crash.
var ErrCrashed = errors.New("rtnet: process crashed")

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

// Latency returns the virtual-tick latency.
func (r Response) Latency() simtime.Duration { return r.Respond.Sub(r.Invoke) }

// Metrics is the substrate's instrument set (build it with NewMetrics;
// nil, the default, disables instrumentation). MsgLatency is each
// delivery's observed delay: the wall-clock tick of its dispatch minus
// its virtual send tick. Virtual delays stay in the lower half of
// [d-u, d], so a sample above d — counted in Late — means the loop fell
// more than u/2 ticks behind the wall clock.
type Metrics struct {
	Delivered  *obs.Counter // messages delivered to live processes
	TimerFires *obs.Counter // timers fired at live processes
	MsgLatency *obs.Hist
	Late       *obs.Counter
	Crashes    *obs.Counter // processes crashed with Crash
	CrashDrops *obs.Counter // deliveries dropped at a crashed receiver
}

// NewMetrics builds the instrument set on a registry, the latency
// histogram sized for [d-u, d] plus generous room for lag. Optional
// labels come as key, value pairs folded into every instrument name
// (obs.WithLabel): the shard-set keeps each shard cluster's metrics
// distinct on one merged endpoint.
func NewMetrics(reg *obs.Registry, p simtime.Params, labels ...string) *Metrics {
	name := func(base string) string {
		for i := 0; i+1 < len(labels); i += 2 {
			base = obs.WithLabel(base, labels[i], labels[i+1])
		}
		return base
	}
	return &Metrics{
		Delivered:  reg.Counter(name("rtnet_messages_delivered_total")),
		TimerFires: reg.Counter(name("rtnet_timer_fires_total")),
		MsgLatency: reg.Hist(name("rtnet_message_latency_ticks"), max(16, 4*int(p.D))),
		Late:       reg.Counter(name("rtnet_late_deliveries_total")),
		Crashes:    reg.Counter(name("crashes_injected")),
		CrashDrops: reg.Counter(name("rtnet_post_crash_drops_total")),
	}
}

// Cluster runs n nodes in real time.
type Cluster struct {
	params  simtime.Params
	tick    time.Duration
	eng     *sim.Engine // owned by the loop goroutine once started
	net     *network
	classes map[string]classify.Class // read-only after Start
	metrics *Metrics

	start    time.Time
	wake     chan struct{} // capacity 1: the mailbox has posts
	stopped  chan struct{}
	stopOnce sync.Once
	loopDone sync.WaitGroup

	// crashed flags are set under mu and read lock-free; crashCh[p] is
	// closed when p crashes so blocked Calls unstick.
	crashed []atomic.Bool
	crashCh []chan struct{}

	mu      sync.Mutex
	err     error           // first failure (a panic on the loop); sticky
	mailbox []post          // requests waiting for the loop
	calls   []chan Response // per process: where its pending operation's response goes
}

// post is one mailbox request: an invocation, a crash, or an inspection.
type post struct {
	proc    sim.ProcID
	op      string
	arg     any
	parent  int64
	crash   bool
	inspect func()
}

// network is the engine's delay source: a UseNetwork rule or one random
// stream per sender, in the lower half of [d-u, d] either way, so the
// observed delay exceeds d only when the loop lags more than u/2 ticks.
type network struct {
	lo, hi   simtime.Duration
	rule     sim.Network
	sendRngs []*rand.Rand // default draws, seeded DeriveSeed(seed, "rtnet/send/p<i>")
}

func (n *network) Delay(from, to sim.ProcID, at simtime.Time, idx int64) simtime.Duration {
	if n.rule != nil {
		return min(max(n.rule.Delay(from, to, at, idx), n.lo), n.hi)
	}
	return n.lo + simtime.Duration(n.sendRngs[from].Int63n(int64(n.hi-n.lo)+1))
}

// NewCluster builds a real-time cluster. tick is the wall-clock duration
// of one virtual tick; offsets must respect the skew bound ε.
func NewCluster(p simtime.Params, tick time.Duration, offsets []simtime.Duration, nodes []sim.Node, seed int64) (*Cluster, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if tick <= 0 {
		return nil, fmt.Errorf("rtnet: tick must be positive")
	}
	net := &network{lo: p.MinDelay(), hi: p.MinDelay() + p.U/2, sendRngs: make([]*rand.Rand, p.N)}
	for i := range net.sendRngs {
		net.sendRngs[i] = rand.New(rand.NewSource(harness.DeriveSeed(seed, fmt.Sprintf("rtnet/send/p%d", i))))
	}
	eng, err := sim.NewEngine(p, offsets, net, nodes)
	if err != nil {
		return nil, fmt.Errorf("rtnet: %w", err)
	}
	eng.SetTraceLevel(sim.TraceNone)
	c := &Cluster{
		params:  p,
		tick:    tick,
		eng:     eng,
		net:     net,
		wake:    make(chan struct{}, 1),
		stopped: make(chan struct{}),
		crashed: make([]atomic.Bool, p.N),
		crashCh: make([]chan struct{}, p.N),
		calls:   make([]chan Response, p.N),
	}
	for i := range c.crashCh {
		c.crashCh[i] = make(chan struct{})
	}
	eng.OnRespond = c.respond
	return c, nil
}

// SetMetrics installs the instrument set. Must be called before Start.
func (c *Cluster) SetMetrics(m *Metrics) {
	c.metrics, c.eng.OnStep = m, nil
	if m != nil {
		c.eng.OnStep = c.observe
	}
}

// SetTracer installs a span tracer (nil: off). Must be called before Start.
func (c *Cluster) SetTracer(t obs.Tracer) { c.eng.SetTracer(t) }

// SetClasses installs the classification that tags responses (the
// serving layer's per-class accounting); unclassified operations report
// Mixed, core.Replica's conservative default. Must be called before Start.
func (c *Cluster) SetClasses(classes map[string]classify.Class) { c.classes = classes }

// UseNetwork replaces the default random delay draw with a
// deterministic sim.Network (e.g. an adversary schedule's
// sim.SequenceNetwork), indexed by global send order as in sim.Engine and
// clamped to the lower half of [d-u, d] like the default draw. Must be
// called before Start.
func (c *Cluster) UseNetwork(net sim.Network) { c.net.rule = net }

// Params returns the cluster's model parameters.
func (c *Cluster) Params() simtime.Params { return c.params }

// Start starts the cluster clock and its loop.
func (c *Cluster) Start() {
	c.start = time.Now()
	c.loopDone.Add(1)
	go c.loop()
}

// wall returns the virtual tick the wall clock has reached since Start.
func (c *Cluster) wall() simtime.Time { return simtime.Time(time.Since(c.start) / c.tick) }

// loop is the only goroutine touching the engine. Each pass applies the
// mailbox's invocations and crashes at the current tick, runs the engine
// up to it and answers inspections, then sleeps until the next event is
// due or a post arrives.
func (c *Cluster) loop() {
	defer c.loopDone.Done()
	defer func() {
		// A panicking node or engine fails the cluster, not the process.
		if r := recover(); r != nil {
			c.mu.Lock()
			c.err = fmt.Errorf("rtnet: %v", r)
			c.mu.Unlock()
			c.stopOnce.Do(func() { close(c.stopped) })
		}
	}()
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	var posts []post
	for {
		now := c.wall()
		c.mu.Lock()
		posts, c.mailbox = c.mailbox, posts[:0]
		c.mu.Unlock()
		at := max(c.eng.Now(), now)
		for _, p := range posts {
			switch {
			case p.crash:
				c.eng.CrashAt(p.proc, at)
			case p.inspect == nil:
				c.eng.InvokeWithParent(p.proc, at, p.op, p.arg, p.parent)
			}
		}
		c.eng.RunUntil(now)
		for _, p := range posts {
			if p.inspect != nil {
				p.inspect()
			}
		}
		clear(posts)
		if next := c.eng.NextTime(); next == simtime.Infinity {
			timer.Stop()
		} else {
			timer.Reset(time.Until(c.start.Add(time.Duration(next) * c.tick)))
		}
		select {
		case <-c.stopped:
			return
		case <-c.wake:
		case <-timer.C:
		}
	}
}

// send posts a request to the loop.
func (c *Cluster) send(p post) {
	c.mailbox = append(c.mailbox, p)
	select {
	case c.wake <- struct{}{}:
	default:
	}
}

// respond is the engine's OnRespond: it hands the response to the
// waiting caller, if the process has not crashed and failed it already.
func (c *Cluster) respond(rec sim.OpRecord) {
	c.mu.Lock()
	call := c.calls[rec.Proc]
	c.calls[rec.Proc] = nil
	c.mu.Unlock()
	if call == nil {
		return
	}
	class, ok := c.classes[rec.Op]
	if !ok {
		class = classify.Mixed
	}
	call <- Response{Proc: rec.Proc, Seq: rec.SeqID, Op: rec.Op, Arg: rec.Arg, Ret: rec.Ret,
		Class: class, Invoke: rec.InvokeTime, Respond: rec.RespondTime}
}

// observe is the engine's OnStep while metrics are installed.
func (c *Cluster) observe(kind sim.StepKind, _ sim.ProcID, sent simtime.Time, crashed bool) {
	m := c.metrics
	switch {
	case kind == sim.StepDeliver && crashed:
		m.CrashDrops.Inc()
	case kind == sim.StepDeliver:
		m.Delivered.Inc()
		delay := int64(c.wall().Sub(sent))
		m.MsgLatency.Add(delay)
		if delay > int64(c.params.D) {
			m.Late.Inc()
		}
	case kind == sim.StepTimer && !crashed:
		m.TimerFires.Inc()
	}
}

// Err returns the cluster's failure (a panic on its loop), if any.
func (c *Cluster) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// Stop terminates the cluster and waits for its loop to exit; pending
// invocations never complete. Stopping again is a no-op.
func (c *Cluster) Stop() {
	c.stopOnce.Do(func() { close(c.stopped) })
	c.loopDone.Wait()
}

// Crash kills one process mid-run: its pending invocation fails with
// ErrCrashed at once, and from the tick at which the loop picks the crash
// up the engine's crash-stop applies — the process takes no further
// step, its timers never fire and deliveries to it are dropped. The
// crash lands between two events, like a process that stopped between
// steps. Whether the survivors still complete operations is the
// backend's crash-tolerance story. Crashing a crashed process is a no-op.
func (c *Cluster) Crash(proc sim.ProcID) {
	c.mu.Lock()
	if c.crashed[proc].Swap(true) {
		c.mu.Unlock()
		return
	}
	c.calls[proc] = nil
	c.send(post{proc: proc, crash: true})
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
	n := 0
	for _, call := range c.calls {
		if call != nil {
			n++
		}
	}
	return n
}

// Drain waits until every pending invocation has responded, then stops
// the cluster. An invocation submitted during a drain is still served and
// extends the wait. A cluster failure ends the wait with that failure; on
// timeout the cluster is stopped anyway and an error names the
// stragglers.
func (c *Cluster) Drain(timeout time.Duration) error {
	poll := min(max(c.tick, time.Millisecond), 10*time.Millisecond)
	deadline := time.Now().Add(timeout)
	for c.Pending() > 0 && c.Err() == nil {
		if time.Now().After(deadline) {
			n := c.Pending()
			c.Stop()
			return fmt.Errorf("rtnet: drain timed out with %d operations pending", n)
		}
		time.Sleep(poll)
	}
	c.Stop()
	return c.Err()
}

// Invoke submits an operation at a process and returns a channel carrying
// its response. The model allows one pending operation per process; an
// invocation at a process that has one is refused. parent is the causal
// parent span (a client-side span carried over the wire protocols), or
// -1 for a local root; it only matters while a tracer is installed. A
// non-nil error means the invocation was not submitted.
func (c *Cluster) Invoke(proc sim.ProcID, op string, arg any, parent int64) (<-chan Response, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch {
	case c.err != nil:
		return nil, c.err
	case c.crashed[proc].Load():
		return nil, ErrCrashed
	case c.calls[proc] != nil:
		return nil, fmt.Errorf("rtnet: p%d already has an operation pending", proc)
	}
	select {
	case <-c.stopped:
		return nil, ErrStopped
	default:
	}
	done := make(chan Response, 1)
	c.calls[proc] = done
	c.send(post{proc: proc, op: op, arg: arg, parent: parent})
	return done, nil
}

// Call invokes (see Invoke for parent) and waits for the response. It
// returns ErrCrashed if the process crashes first, and the cluster's
// recorded failure (or ErrStopped) if the cluster stops first.
func (c *Cluster) Call(proc sim.ProcID, op string, arg any, parent int64) (Response, error) {
	ch, err := c.Invoke(proc, op, arg, parent)
	if err != nil {
		return Response{}, err
	}
	select {
	case resp := <-ch:
		return resp, nil
	case <-c.crashCh[proc]:
	case <-c.stopped:
	}
	select {
	case resp := <-ch: // the response raced with the crash or stop
		return resp, nil
	default:
	}
	if c.Crashed(proc) {
		return Response{}, ErrCrashed
	}
	if err := c.Err(); err != nil {
		return Response{}, err
	}
	return Response{}, ErrStopped
}

// Inspect runs f on the cluster's loop between events and waits for it,
// establishing the happens-before edge needed to read node state safely
// (e.g. replica fingerprints for convergence checks). proc names the
// process whose state f reads; every process shares the one loop. On a
// stopped cluster f does not run.
func (c *Cluster) Inspect(proc sim.ProcID, f func()) {
	done := make(chan struct{})
	c.mu.Lock()
	c.send(post{proc: proc, inspect: func() { f(); close(done) }})
	c.mu.Unlock()
	select {
	case <-done:
	case <-c.stopped:
	}
}
