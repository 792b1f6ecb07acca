// Package serve is the client-facing serving layer over the real-time
// substrate: it boots an n-replica rtnet cluster running Algorithm 1,
// routes invocations to replicas while preserving the model's
// one-pending-operation-per-process rule, streams every completed
// operation into per-class (AOP/MOP/OOP) and per-operation latency
// histograms, and exposes both an in-process call path (tests, the load
// generator) and a length-prefixed JSON protocol over TCP (see proto.go).
//
// Routing: every request goes onto one server-wide channel, and each
// live replica's worker takes the next request as soon as its replica is
// free, so a call waits only while every replica is busy. A worker serves
// one request at a time, so each process has at most one operation
// pending — exactly the client behavior the paper's model assumes.
// Backpressure is the channel: when QueueDepth·n requests are waiting,
// Call blocks, which is the closed-loop behavior the load generator
// expects. A crashed replica's worker leaves the pool; once every replica
// has crashed, Call and every queued call fail with ErrAllCrashed.
//
// Shutdown is a graceful drain: listeners close first (no new
// connections), then new calls are refused, then every in-flight
// operation completes, then the cluster drains and its loop exits, and
// finally open connections are torn down. Nothing is dropped.
package serve

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"lintime/internal/adt"
	"lintime/internal/classify"
	"lintime/internal/core"
	"lintime/internal/harness"
	"lintime/internal/histio"
	"lintime/internal/obs"
	"lintime/internal/quorum"
	"lintime/internal/rtnet"
	"lintime/internal/sim"
	"lintime/internal/simtime"
	"lintime/internal/spec"
)

// ErrDraining is returned by Call once a drain has begun.
var ErrDraining = errors.New("serve: server is draining")

// ErrAllCrashed is returned by Call when every replica has been crashed.
var ErrAllCrashed = errors.New("serve: all replicas crashed")

// Config describes one served cluster.
type Config struct {
	Params simtime.Params
	// Backend selects the replicated protocol: harness.AlgCore (or empty)
	// serves Algorithm 1; harness.AlgQuorum serves the ABD crash-tolerant
	// majority-quorum register (TypeName then defaults to register, the
	// only type the quorum protocol implements, and Crash becomes
	// survivable for any minority).
	Backend  string
	TypeName string        // data type to serve (default queue)
	Tick     time.Duration // wall-clock duration of one virtual tick (default 1ms)
	Offsets  string        // harness offset assignment name (default zero)
	Seed     int64         // master seed; sub-streams are derived per use
	// QueueDepth·n bounds the server's request queue (default QueueDepth
	// 64); a full queue blocks Call, giving closed-loop backpressure.
	QueueDepth int
	// DataType, when non-nil, overrides TypeName with an explicit data
	// type instance. The shard-set uses it to serve a keyed family
	// (adt.Keyed) that has no registry name.
	DataType spec.DataType
	// ShardLabel, when non-empty, is folded into every metric name as a
	// shard="..." label so many shard clusters can merge onto one
	// observability endpoint without collisions. Empty (single-object
	// serving) keeps the historical unlabeled names.
	ShardLabel string
}

type result struct {
	resp rtnet.Response
	err  error
}

type call struct {
	op     string
	arg    any
	parent int64 // causal parent span (wire trace context), -1 for none
	out    chan result
}

// Server is a running serving layer over one rtnet cluster.
type Server struct {
	cfg     Config
	dt      spec.DataType
	ops     map[string]struct{} // the served type's operation names
	classes map[string]classify.Class
	offsets []simtime.Duration
	cluster *rtnet.Cluster
	formula func(classify.Class) simtime.Duration

	reqs    chan call       // QueueDepth per replica; taken by every live replica's worker
	down    []chan struct{} // closed by Crash: the replica's worker leaves
	dead    []atomic.Bool   // replicas crashed by Crash
	crashed atomic.Int32    // how many of them
	workers sync.WaitGroup

	mu       sync.Mutex
	started  bool
	draining bool
	inflight sync.WaitGroup

	drainOnce sync.Once
	drainErr  error

	rec  *recorder
	reg  *obs.Registry
	obsm *serveMetrics

	// traceColl is set when SetTracer installed an *obs.Collector: the
	// worker loop then attributes every completed operation's latency into
	// the per-class term histograms, and the flight recorder can dump the
	// collector's retained trees.
	traceColl *obs.Collector
	attrP     obs.AttrParams

	fe frontend // TCP front half (listeners, connections, teardown)
}

// New builds a server for the configuration. Call Start before Call or
// Serve.
func New(cfg Config) (*Server, error) {
	if cfg.TypeName == "" {
		cfg.TypeName = "queue"
		if cfg.Backend == harness.AlgQuorum {
			cfg.TypeName = "register"
		}
	}
	if cfg.Tick <= 0 {
		cfg.Tick = time.Millisecond
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	dt := cfg.DataType
	if dt == nil {
		var err error
		dt, err = adt.Lookup(cfg.TypeName)
		if err != nil {
			return nil, err
		}
	}
	if err := cfg.Params.Validate(); err != nil {
		return nil, err
	}
	// The keyed wrapper preserves every operation's algebraic class (a
	// lifted mutator still mutates only its key's substate, a lifted
	// accessor still never mutates), so classification runs on the basis
	// type — cheaper, and identical op names make the classes line up.
	basis := dt
	if k, ok := dt.(*adt.Keyed); ok {
		basis = k.Basis()
	}
	classes := harness.ClassesFor(basis)
	offsets, err := harness.Offsets(cfg.Offsets, cfg.Params, harness.DeriveSeed(cfg.Seed, "serve/offsets"))
	if err != nil {
		return nil, err
	}
	var nodes []sim.Node
	formula := func(class classify.Class) simtime.Duration { return FormulaTicks(cfg.Params, class) }
	switch cfg.Backend {
	case "", harness.AlgCore:
		nodes = core.NewReplicas(cfg.Params.N, dt, classes, core.DefaultTimers(cfg.Params))
	case harness.AlgQuorum:
		nodes, err = harness.QuorumNodes(cfg.Params, dt, quorum.DefaultConfig(cfg.Params))
		if err != nil {
			return nil, err
		}
		formula = func(classify.Class) simtime.Duration { return QuorumFormulaTicks(cfg.Params) }
	default:
		return nil, fmt.Errorf("serve: unsupported backend %q (have %s, %s)",
			cfg.Backend, harness.AlgCore, harness.AlgQuorum)
	}
	cluster, err := rtnet.NewCluster(cfg.Params, cfg.Tick, offsets, nodes,
		harness.DeriveSeed(cfg.Seed, "serve/net"))
	if err != nil {
		return nil, err
	}
	cluster.SetClasses(classes)
	opNames := spec.OpNames(basis)
	s := &Server{
		cfg:     cfg,
		dt:      dt,
		ops:     make(map[string]struct{}, len(opNames)),
		classes: classes,
		offsets: offsets,
		cluster: cluster,
		formula: formula,
		reqs:    make(chan call, cfg.QueueDepth*cfg.Params.N),
		down:    make([]chan struct{}, cfg.Params.N),
		dead:    make([]atomic.Bool, cfg.Params.N),
		rec:     newRecorder(),
	}
	for _, name := range opNames {
		s.ops[name] = struct{}{}
	}
	for i := range s.down {
		s.down[i] = make(chan struct{})
	}
	s.fe.init(s.handleRequest, s.isDraining, opNames)
	s.wireMetrics()
	return s, nil
}

func (s *Server) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Type returns the served data type.
func (s *Server) Type() spec.DataType { return s.dt }

// Classes returns the computed operation classification (read-only).
func (s *Server) Classes() map[string]classify.Class { return s.classes }

// Config returns the server configuration (with defaults resolved).
func (s *Server) Config() Config { return s.cfg }

// Start launches the cluster and the per-replica routing workers.
func (s *Server) Start() {
	s.mu.Lock()
	if s.started {
		s.mu.Unlock()
		return
	}
	s.started = true
	s.mu.Unlock()
	s.cluster.Start()
	for i := range s.down {
		s.workers.Add(1)
		go s.worker(i)
	}
}

// worker serves requests at replica i, one at a time, until the request
// channel closes or the replica crashes. A crashed replica's worker
// leaves the pool, handing back a request it took as the crash landed.
// Once every replica has crashed, leaving workers stay to answer queued
// and later requests with ErrAllCrashed.
func (s *Server) worker(i int) {
	defer s.workers.Done()
	var stray *call
wait:
	for {
		select {
		case <-s.down[i]:
			break wait
		case c, ok := <-s.reqs:
			if !ok {
				return
			}
			if s.dead[i].Load() {
				stray = &c
				break wait
			}
			s.serve(sim.ProcID(i), c)
		}
	}
	if int(s.crashed.Load()) < len(s.dead) {
		if stray != nil {
			s.reqs <- *stray // still in flight, so Drain has not closed reqs
		}
		return
	}
	if stray != nil {
		s.reject(*stray)
	}
	for c := range s.reqs {
		s.reject(c)
	}
}

func (s *Server) serve(proc sim.ProcID, c call) {
	resp, err := s.cluster.Call(proc, c.op, c.arg, c.parent)
	if err == nil {
		s.rec.record(resp)
		s.obsm.observe(resp.Class, int64(resp.Latency()))
		if s.traceColl != nil {
			if a, ok := s.traceColl.Attribute(resp.Seq, resp.Class.String(),
				int64(resp.Invoke), s.attrP); ok {
				s.obsm.observeTerms(resp.Class, a)
			}
		}
	} else {
		s.obsm.errors.Inc()
	}
	c.out <- result{resp: resp, err: err}
}

func (s *Server) reject(c call) {
	s.obsm.errors.Inc()
	c.out <- result{err: ErrAllCrashed}
}

// Call executes one operation against the served object and blocks until
// its response. Safe for any number of concurrent callers; each request
// occupies one replica slot, so at most n operations are in flight at
// once and each process has at most one pending operation.
func (s *Server) Call(op string, arg any) (rtnet.Response, error) {
	return s.call(op, arg, -1)
}

// hasOp reports whether the served type declares op, against the name
// set built once in New: spec.FindOp would rebuild the type's op table,
// which for a keyed shard type boxes every sample key and argument.
func (s *Server) hasOp(op string) bool {
	_, ok := s.ops[op]
	return ok
}

// call is Call carrying a causal parent span — the client-side span
// propagated through the wire protocols' trace context — recorded as the
// operation's parent edge when a tracer is installed.
func (s *Server) call(op string, arg any, parent int64) (rtnet.Response, error) {
	if !s.hasOp(op) {
		return rtnet.Response{}, fmt.Errorf("serve: type %s has no operation %q", s.dt.Name(), op)
	}
	s.mu.Lock()
	if !s.started || s.draining {
		s.mu.Unlock()
		if !s.started {
			return rtnet.Response{}, errors.New("serve: server not started")
		}
		return rtnet.Response{}, ErrDraining
	}
	s.inflight.Add(1)
	s.mu.Unlock()
	s.obsm.calls.Inc()
	s.obsm.inflight.Add(1)
	defer s.obsm.inflight.Add(-1)
	defer s.inflight.Done()
	if int(s.crashed.Load()) == len(s.dead) {
		s.obsm.errors.Inc()
		return rtnet.Response{}, ErrAllCrashed
	}
	out := make(chan result, 1)
	s.reqs <- call{op: op, arg: arg, parent: parent, out: out}
	r := <-out
	return r.resp, r.err
}

// Crash fails replica i: its worker leaves the routing pool (later
// Calls go to the survivors) and its process is crashed on the substrate
// — timers canceled, pending operations failed with rtnet.ErrCrashed,
// subsequent deliveries dropped. With the quorum backend any minority of
// replicas can be crashed and the survivors keep serving; under
// Algorithm 1 a crash wedges mutators cluster-wide (every process must
// apply every update), which is exactly the availability gap the
// head-to-head measures.
func (s *Server) Crash(i int) {
	if i < 0 || i >= len(s.dead) {
		return
	}
	if s.dead[i].Swap(true) {
		return
	}
	s.crashed.Add(1)
	close(s.down[i])
	s.cluster.Crash(sim.ProcID(i))
}

// Crashed reports whether replica i has been crashed.
func (s *Server) Crashed(i int) bool {
	return i >= 0 && i < len(s.dead) && s.dead[i].Load()
}

// Formula returns the worst-case latency bound the server judges the
// class against: Algorithm 1's per-class formulas, or the quorum
// backend's class-independent 4d.
func (s *Server) Formula(class classify.Class) simtime.Duration { return s.formula(class) }

// Drain gracefully shuts the server down: close listeners, refuse new
// calls, wait for every in-flight operation to respond, stop the routing
// workers, drain and stop the cluster, then close remaining connections.
// Idempotent; later calls return the first drain's result.
func (s *Server) Drain(timeout time.Duration) error {
	s.drainOnce.Do(func() { s.drainErr = s.drain(timeout) })
	return s.drainErr
}

func (s *Server) drain(timeout time.Duration) error {
	// Refuse new work before closing listeners: Serve's accept loop
	// distinguishes a drain-initiated close by observing the flag.
	s.mu.Lock()
	started := s.started
	s.draining = true
	s.mu.Unlock()
	s.obsm.drainState.Set(1)
	defer s.obsm.drainState.Set(2)
	s.fe.closeListeners()
	if !started {
		s.fe.shutdownConns()
		return nil
	}

	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	var timedOut error
	select {
	case <-done:
	case <-time.After(timeout):
		timedOut = fmt.Errorf("serve: drain timed out after %v with operations in flight", timeout)
	}
	if timedOut == nil {
		close(s.reqs)
		s.workers.Wait()
	}
	err := s.cluster.Drain(timeout)
	// Every response write must land before its connection is torn down:
	// shutdownConns stops reads first, then the per-connection handlers
	// flush their pending responses (requests that raced the drain got
	// fast ErrDraining answers) and close.
	s.fe.shutdownConns()
	if timedOut != nil {
		return timedOut
	}
	return err
}

// Stats returns the latency accounting accumulated so far.
func (s *Server) Stats() Stats { return s.rec.snapshot() }

// Trace assembles the recorded operations into a sim.Trace for the
// linearizability checker and the diagram renderer. Operations are in
// completion order; messages and steps are not recorded on this
// substrate.
func (s *Server) Trace() *sim.Trace {
	return &sim.Trace{
		Params:  s.cfg.Params,
		Offsets: append([]simtime.Duration(nil), s.offsets...),
		Ops:     s.rec.ops(),
	}
}

// Stats is the JSON-ready latency accounting of a server or load run.
type Stats struct {
	Ops      int                         `json:"ops"`
	PerClass map[string]histio.Quantiles `json:"per_class"`
	PerOp    map[string]histio.Quantiles `json:"per_op"`
}

// recorder accumulates completed operations and their latency histograms.
type recorder struct {
	mu       sync.Mutex
	recorded []sim.OpRecord
	perClass map[classify.Class]*histio.Histogram
	perOp    map[string]*histio.Histogram
}

func newRecorder() *recorder {
	return &recorder{
		perClass: map[classify.Class]*histio.Histogram{},
		perOp:    map[string]*histio.Histogram{},
	}
}

func (r *recorder) record(resp rtnet.Response) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.recorded = append(r.recorded, sim.OpRecord{
		Proc: resp.Proc, SeqID: resp.Seq, Op: resp.Op, Arg: resp.Arg, Ret: resp.Ret,
		InvokeTime: resp.Invoke, RespondTime: resp.Respond,
	})
	lat := resp.Latency()
	h := r.perClass[resp.Class]
	if h == nil {
		h = &histio.Histogram{}
		r.perClass[resp.Class] = h
	}
	h.Add(lat)
	ho := r.perOp[resp.Op]
	if ho == nil {
		ho = &histio.Histogram{}
		r.perOp[resp.Op] = ho
	}
	ho.Add(lat)
}

func (r *recorder) ops() []sim.OpRecord {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]sim.OpRecord(nil), r.recorded...)
}

func (r *recorder) snapshot() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := Stats{
		Ops:      len(r.recorded),
		PerClass: map[string]histio.Quantiles{},
		PerOp:    map[string]histio.Quantiles{},
	}
	for class, h := range r.perClass {
		st.PerClass[class.String()] = h.Summary()
	}
	for op, h := range r.perOp {
		st.PerOp[op] = h.Summary()
	}
	return st
}
