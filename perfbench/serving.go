package main

import (
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"strings"
	"sync"
	"time"

	"lintime/internal/classify"
	"lintime/internal/harness"
	"lintime/internal/obs"
	"lintime/internal/rtnet"
	"lintime/internal/serve"
	"lintime/internal/simtime"
	"lintime/internal/spec"
)

// The deployment every serving workload uses: 4 shards of a 5-replica
// Algorithm 1 queue cluster, 32 uniformly drawn object keys.
const (
	numShards  = 4
	numKeys    = 32
	setupRuns  = 21 // set-ups per untraced run; setup_s is their median
	drainAfter = 60 * time.Second
)

var servingParams = simtime.Params{N: 5, D: 40, U: 20, Epsilon: 16, X: 16}

// weighted is one entry of an operation mix.
type weighted struct {
	op     string
	weight int
}

// servingLoad describes how a serving workload drives the deployment.
type servingLoad struct {
	name string
	tick time.Duration
	mix  []weighted
	// rate > 0 selects an open loop with Poisson arrivals at rate ops/s,
	// called in process.
	rate float64
	// Otherwise a closed loop over conns binary-codec TCP connections,
	// each keeping depth operations in flight.
	conns, depth int
	// misroute, when set, is installed with ShardSet.SetMisroute: a
	// routing fault the per-object check must catch.
	misroute func(key string, shard int) int
}

// Both loads run at a 1 ms tick. Algorithm 1 is correct only while every
// message arrives within d; rtnet draws delays at most u/2 ticks short
// of d, so a shorter tick leaves less wall-clock room for the host's
// stalls, and at 250µs an occasional run was no longer linearizable.
var (
	pacedLoad = servingLoad{
		name: "paced", tick: time.Millisecond, rate: 300,
		mix: []weighted{{"peek", 8}, {"enqueue", 1}, {"dequeue", 1}},
	}
	saturatedLoad = servingLoad{
		name: "saturated", tick: time.Millisecond, conns: 2, depth: 32,
		mix: []weighted{{"enqueue", 2}, {"dequeue", 2}, {"peek", 1}},
	}
)

func runPaced(o options) (*result, error)     { return runServing(pacedLoad, o) }
func runSaturated(o options) (*result, error) { return runServing(saturatedLoad, o) }

// objectKeys names the workload's objects.
func objectKeys() []string {
	keys := make([]string, numKeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("obj-%02d", i)
	}
	return keys
}

// deployment is one running shard set plus, for TCP loads, its listener
// and client connections.
type deployment struct {
	ss        *serve.ShardSet
	ln        *countingListener
	serveDone chan error
	clients   []*serve.Client
}

// deploy builds, starts and warms a deployment (one call reaches every
// shard) and reports how long that took.
func deploy(load servingLoad, seed int64, traced bool) (*deployment, time.Duration, error) {
	start := time.Now()
	ss, err := serve.NewShardSet(serve.ShardSetConfig{
		Config: serve.Config{Params: servingParams, TypeName: "queue", Tick: load.tick, Seed: seed},
		Shards: numShards,
	})
	if err != nil {
		return nil, 0, err
	}
	if traced {
		ss.SetTracers(func(int) obs.Tracer { return obs.NewCollector(0) })
	}
	if load.misroute != nil {
		ss.SetMisroute(load.misroute)
	}
	ss.Start()
	d := &deployment{ss: ss}
	if load.rate == 0 {
		inner, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			d.close()
			return nil, 0, err
		}
		d.ln = &countingListener{Listener: inner, count: traced}
		d.serveDone = make(chan error, 1)
		go func() { d.serveDone <- ss.Serve(d.ln) }()
		// At most one connection per CPU: concurrency comes from pipelining.
		for i := 0; i < min(load.conns, runtime.NumCPU()); i++ {
			c, err := serve.DialCodec(inner.Addr().String(), serve.CodecBinary)
			if err != nil {
				d.close()
				return nil, 0, err
			}
			d.clients = append(d.clients, c)
		}
	}
	if err := d.warm(); err != nil {
		d.close()
		return nil, 0, err
	}
	return d, time.Since(start), nil
}

// call issues one keyed operation through worker w's path: in process,
// or over connection w mod conns.
func (d *deployment) call(w int, key, op string, arg any) (rtnet.Response, error) {
	if len(d.clients) == 0 {
		return d.ss.CallKey(key, op, arg)
	}
	return d.clients[w%len(d.clients)].CallKey(key, op, arg)
}

// warm sends one peek to every shard, concurrently.
func (d *deployment) warm() error {
	keyFor := map[int]string{}
	for _, k := range objectKeys() {
		if _, ok := keyFor[d.ss.ShardFor(k)]; !ok {
			keyFor[d.ss.ShardFor(k)] = k
		}
	}
	errs := make(chan error, len(keyFor))
	for shard, key := range keyFor {
		go func() {
			_, err := d.call(shard, key, "peek", nil)
			errs <- err
		}()
	}
	var first error
	for range keyFor {
		if err := <-errs; err != nil && first == nil {
			first = fmt.Errorf("warm-up call: %w", err)
		}
	}
	return first
}

// close drains the deployment and waits for everything it started.
func (d *deployment) close() error {
	err := d.ss.Drain(drainAfter)
	for _, c := range d.clients {
		c.Close()
	}
	if d.serveDone != nil {
		if serr := <-d.serveDone; serr != nil && err == nil {
			err = serr
		}
	}
	return err
}

// record is one issued call as the client saw it.
type record struct {
	key      int
	class    int // index into classNames
	failed   bool
	at       time.Duration // when the response arrived, from the start of the window
	clientNs int64         // wall clock from due time (open loop) or send (closed loop) to response
	ticks    int64         // replica latency in virtual ticks, from the rtnet.Response stamps
	lagNs    int64         // open loop: how late the generator issued the call
}

// runStats is what one measured window of a serving load produced.
type runStats struct {
	recs    []record
	elapsed time.Duration
	checkS  float64
	badKeys map[int]bool // objects that failed the per-object check
	// unverified counts the objects among badKeys that got no verdict
	// within objectCheckTimeout.
	unverified int
	used       usage
	window     time.Duration // the measured window; elapsed also covers the calls in flight at its end
	ss         *serve.ShardSet
	ln         *countingListener
	ok         int64
	rssMB      float64 // peak RSS when the window closed, before the check
}

// opChooser draws operations from a mix with the type's sample arguments.
type opChooser struct {
	ops     []string
	args    map[string][]spec.Value
	classOf map[string]int
}

func newChooser(dt spec.DataType, classes map[string]classify.Class, mix []weighted) (*opChooser, error) {
	c := &opChooser{args: map[string][]spec.Value{}, classOf: map[string]int{}}
	for _, m := range mix {
		info, ok := spec.FindOp(dt, m.op)
		if !ok {
			return nil, fmt.Errorf("type %s has no operation %q", dt.Name(), m.op)
		}
		for i := 0; i < m.weight; i++ {
			c.ops = append(c.ops, m.op)
		}
		c.args[m.op] = info.Args
		c.classOf[m.op] = classIndex(classes[m.op])
	}
	return c, nil
}

func (c *opChooser) draw(rng *rand.Rand) (op string, arg spec.Value, key int) {
	op = c.ops[rng.Intn(len(c.ops))]
	args := c.args[op]
	return op, args[rng.Intn(len(args))], rng.Intn(numKeys)
}

func classIndex(c classify.Class) int {
	switch c {
	case classify.PureAccessor:
		return 0
	case classify.PureMutator:
		return 1
	default:
		return 2
	}
}

// measure runs one measured window against a fresh deployment, drains
// it and checks every object's history.
func measure(load servingLoad, seed int64, seconds float64, traced bool) (*runStats, time.Duration, error) {
	d, setup, err := deploy(load, seed, traced)
	if err != nil {
		return nil, 0, err
	}
	classes := d.ss.Shard(0).Classes()
	chooser, err := newChooser(d.ss.Type(), classes, load.mix)
	if err != nil {
		d.close()
		return nil, 0, err
	}
	keys := objectKeys()
	window := time.Duration(seconds * float64(time.Second))
	st := &runStats{ss: d.ss, ln: d.ln, window: window}
	before := readUsage()
	start := time.Now()
	if load.rate > 0 {
		st.recs = openLoop(d, chooser, keys, load.rate, start, window, seed)
	} else {
		st.recs = closedLoop(d, chooser, keys, len(d.clients)*load.depth, start, window, seed)
	}
	st.elapsed = time.Since(start)
	st.used = before.since()
	st.rssMB = peakRSSMB()
	if err := d.close(); err != nil {
		return nil, 0, fmt.Errorf("drain: %w", err)
	}
	t := time.Now()
	bad, unverified, err := checkObjects(d.ss)
	if err != nil {
		return nil, 0, err
	}
	st.unverified = unverified
	st.checkS = time.Since(t).Seconds()
	st.badKeys = map[int]bool{}
	for i, name := range keys {
		if bad[name] {
			st.badKeys[i] = true
		}
	}
	for _, r := range st.recs {
		if !r.failed {
			st.ok++
		}
	}
	return st, setup, nil
}

// openLoop issues calls at Poisson arrival times for the window; each
// call runs on its own goroutine and is timed from its due time.
func openLoop(d *deployment, c *opChooser, keys []string, rate float64, start time.Time, window time.Duration, seed int64) []record {
	rng := rand.New(rand.NewSource(harness.DeriveSeed(seed, "perfbench/open")))
	type arrival struct {
		at  time.Duration
		op  string
		arg spec.Value
		key int
	}
	var arrivals []arrival
	for at := time.Duration(0); ; {
		at += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		if at >= window {
			break
		}
		op, arg, key := c.draw(rng)
		arrivals = append(arrivals, arrival{at, op, arg, key})
	}
	recs := make([]record, len(arrivals))
	var wg sync.WaitGroup
	for i, a := range arrivals {
		due := start.Add(a.at)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		lag := time.Since(due)
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, err := d.call(i, keys[a.key], a.op, a.arg)
			recs[i] = record{key: a.key, class: c.classOf[a.op], failed: err != nil, at: time.Since(start),
				clientNs: int64(time.Since(due)), ticks: int64(r.Latency()), lagNs: int64(lag)}
		}()
	}
	wg.Wait()
	return recs
}

// closedLoop runs workers callers for the window, each issuing its next
// call when the previous one returns.
func closedLoop(d *deployment, c *opChooser, keys []string, workers int, start time.Time, window time.Duration, seed int64) []record {
	logs := make([][]record, workers)
	var wg sync.WaitGroup
	deadline := start.Add(window)
	for w := 0; w < workers; w++ {
		rng := rand.New(rand.NewSource(harness.DeriveSeed(seed, fmt.Sprintf("perfbench/closed/%d", w))))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				op, arg, key := c.draw(rng)
				t := time.Now()
				r, err := d.call(w, keys[key], op, arg)
				logs[w] = append(logs[w], record{key: key, class: c.classOf[op], failed: err != nil,
					at: time.Since(start), clientNs: int64(time.Since(t)), ticks: int64(r.Latency())})
			}
		}()
	}
	wg.Wait()
	var recs []record
	for _, l := range logs {
		recs = append(recs, l...)
	}
	return recs
}

// failures counts calls that errored or touched an object whose history
// failed the linearizability check.
func (st *runStats) failures() int64 {
	var n int64
	for _, r := range st.recs {
		if r.failed || st.badKeys[r.key] {
			n++
		}
	}
	return n
}

// sliceMedians cuts the window into statWindow slices (one slice if
// the window is shorter) and returns the medians across the slices of
// the mean, p50 and p99 client latency of the successful calls, so a
// stall moves one slice, not the result. Calls completing after the
// last slice are left out.
func (st *runStats) sliceMedians() (avg, p50, p99 float64) {
	slice := min(st.window, statWindow)
	lat := make([][]float64, int(st.window/slice))
	for _, r := range st.recs {
		if i := int(r.at / slice); i < len(lat) && !r.failed {
			lat[i] = append(lat[i], float64(r.clientNs)/1e6)
		}
	}
	var means, p50s, p99s []float64
	for _, l := range lat {
		if len(l) == 0 {
			continue
		}
		means = append(means, mean(l))
		p50s = append(p50s, quantile(l, 0.50))
		p99s = append(p99s, quantile(l, 0.99))
	}
	return quantile(means, 0.5), quantile(p50s, 0.5), quantile(p99s, 0.5)
}

// latencies returns client latencies in ms of the successful calls of
// one class (class < 0: all classes).
func (st *runStats) latencies(class int) []float64 {
	var out []float64
	for _, r := range st.recs {
		if !r.failed && (class < 0 || r.class == class) {
			out = append(out, float64(r.clientNs)/1e6)
		}
	}
	return out
}

// formulaTicksFor are the paper's per-class latency bounds, indexed like
// classNames: |AOP| = d−X+ε, |MOP| = X+ε, |OOP| = d+ε.
func formulaTicksFor(p simtime.Params) [3]int64 {
	return [3]int64{
		int64(serve.FormulaTicks(p, classify.PureAccessor)),
		int64(serve.FormulaTicks(p, classify.PureMutator)),
		int64(serve.FormulaTicks(p, classify.Mixed)),
	}
}

// slotCeiling is the throughput the replica slots allow: n·M operations
// in flight, each lasting the mix-weighted formula latency.
func slotCeiling(load servingLoad, classes map[string]classify.Class) float64 {
	f := formulaTicksFor(servingParams)
	var sum, weights float64
	for _, m := range load.mix {
		sum += float64(m.weight) * float64(f[classIndex(classes[m.op])])
		weights += float64(m.weight)
	}
	meanLatency := sum / weights * load.tick.Seconds()
	return float64(servingParams.N*numShards) / meanLatency
}

func runServing(load servingLoad, o options) (*result, error) {
	if o.trace {
		return runServingTraced(load, o)
	}
	st, setup, err := measure(load, o.seed, o.seconds, false)
	if err != nil {
		return nil, err
	}
	setups := []float64{setup.Seconds()}
	for len(setups) < setupRuns {
		d, setup, err := deploy(load, o.seed, false)
		if err != nil {
			return nil, err
		}
		if err := d.close(); err != nil {
			return nil, fmt.Errorf("drain: %w", err)
		}
		setups = append(setups, setup.Seconds())
	}
	res := &result{attempted: int64(len(st.recs)), failed: st.failures(), values: map[string]float64{}}
	avg, p50, p99 := st.sliceMedians()
	res.values["setup_s"] = quantile(setups, 0.5)
	res.values["latency_mean_ms"] = avg
	printServingReport(load, st, res, p50, p99)
	return res, nil
}

// printServingReport writes the human-readable lines: the paper
// references, throughput, CPU per call, the per-class client latencies
// and the check outcome.
func printServingReport(load servingLoad, st *runStats, res *result, p50, p99 float64) {
	f := formulaTicksFor(servingParams)
	fmt.Printf("reference n=%d M=%d d=%d u=%d eps=%d X=%d tick=%v formula_ticks aop=%d mop=%d oop=%d slot_ceiling_ops_per_sec=%.0f\n",
		servingParams.N, numShards, servingParams.D, servingParams.U, servingParams.Epsilon, servingParams.X,
		load.tick, f[0], f[1], f[2], slotCeiling(load, st.ss.Shard(0).Classes()))
	var b strings.Builder
	for i, c := range classNames {
		lat := st.latencies(i)
		fmt.Fprintf(&b, " %s_p50_ms=%.3f %s_p99_ms=%.3f %s_n=%d", c, quantile(lat, 0.5), c, quantile(lat, 0.99), c, len(lat))
	}
	fmt.Printf("end_to_end ops_per_sec=%.1f cpu_ms_per_op=%.4f latency_p50_ms=%.3f latency_p99_ms=%.3f%s peak_rss_mb=%.1f\n",
		float64(st.ok)/st.elapsed.Seconds(), cpuPerOp(st.used, res.attempted)*1000, p50, p99, b.String(), st.rssMB)
	fmt.Printf("check attempted=%d failed=%d failed_share=%.4f failed_objects=%d/%d unverified_objects=%d check_s=%.3f\n",
		res.attempted, res.failed, float64(res.failed)/float64(res.attempted), len(st.badKeys), numKeys, st.unverified, st.checkS)
}

// runServingTraced measures the first half of the window untraced and
// the second half traced, both from the run's seed, and reports
// per-layer metrics from the traced half.
func runServingTraced(load servingLoad, o options) (*result, error) {
	base, _, err := measure(load, o.seed, o.seconds/2, false)
	if err != nil {
		return nil, err
	}
	traced, _, err := measure(load, o.seed, o.seconds/2, true)
	if err != nil {
		return nil, err
	}
	v := map[string]float64{}
	layerServing(v, load, traced)
	runtimeMetrics(v, base.used, base.ok)
	v["runtime.peak_rss_mb"] = base.rssMB
	_, _, v["latency_p99_ms"] = base.sliceMedians()
	v["trace.overhead_share"] = cpuPerOp(traced.used, traced.ok)/cpuPerOp(base.used, base.ok) - 1
	for _, m := range checkOnlyLayers {
		v[m] = 0
	}
	return &result{
		attempted: int64(len(base.recs) + len(traced.recs)),
		failed:    base.failures() + traced.failures(),
		values:    v,
	}, nil
}

// countingListener counts the bytes a deployment's connections carry and
// the time its response writes take, when count is set.
type countingListener struct {
	net.Listener
	count bool
	mu    sync.Mutex
	bytes int64
	write time.Duration
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil || !l.count {
		return c, err
	}
	return &countingConn{Conn: c, l: l}, nil
}

type countingConn struct {
	net.Conn
	l *countingListener
}

func (c *countingConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.l.mu.Lock()
	c.l.bytes += int64(n)
	c.l.mu.Unlock()
	return n, err
}

func (c *countingConn) Write(b []byte) (int, error) {
	t := time.Now()
	n, err := c.Conn.Write(b)
	spent := time.Since(t)
	c.l.mu.Lock()
	c.l.bytes += int64(n)
	c.l.write += spent
	c.l.mu.Unlock()
	return n, err
}

// CloseRead keeps the serving front end's graceful drain: it half-closes
// TCP connections so pending responses still flush.
func (c *countingConn) CloseRead() error {
	if cr, ok := c.Conn.(interface{ CloseRead() error }); ok {
		return cr.CloseRead()
	}
	return c.Conn.Close()
}
