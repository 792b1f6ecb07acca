package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"lintime/internal/adt"
	"lintime/internal/adversary"
	"lintime/internal/harness"
	"lintime/internal/lincheck"
	"lintime/internal/sim"
	"lintime/internal/simtime"
	"lintime/internal/spec"
)

// checkWarmUp is how long an untraced check run runs campaigns before
// it times anything.
const checkWarmUp = time.Second

// checkBudget is the fixed schedule budget of one fuzz campaign, the
// unit whose CPU time is the check workload's latency.
const checkBudget = 128

// checkParams are the paper-default model parameters `lintime fuzz`
// uses: n=5, d=2·Quantum, u=d/2, optimal ε, X=ε.
var checkParams = simtime.DefaultParams(5)

func checkOptions(dt spec.DataType, seed int64) adversary.Options {
	return adversary.Options{
		Params: checkParams, DT: dt, Target: adversary.Target{Algorithm: harness.AlgCore},
		Seed: seed, Budget: checkBudget, Parallel: runtime.GOMAXPROCS(0),
	}
}

// campaigns is what a run of back-to-back fuzz campaigns produced.
type campaigns struct {
	n, schedules, violations, signatures int64
	wall, cpu                            []float64 // ms per campaign
	elapsed                              time.Duration
	used                                 usage
}

// run runs fixed-budget campaigns, each from its own derived seed, until
// the window has passed, and adds them to c.
func (c *campaigns) run(dt spec.DataType, seed int64, window time.Duration) error {
	before := readUsage()
	start := time.Now()
	for time.Since(start) < window {
		opts := checkOptions(dt, harness.DeriveSeed(seed, fmt.Sprintf("perfbench/check/%d", c.n)))
		t, u := time.Now(), readUsage()
		rep, err := adversary.Fuzz(opts)
		if err != nil {
			return err
		}
		c.wall = append(c.wall, ms(time.Since(t)))
		c.cpu = append(c.cpu, u.since().cpuS*1000)
		c.n++
		c.schedules += int64(rep.Schedules)
		c.violations += int64(len(rep.Violations))
		c.signatures += int64(rep.Signatures)
	}
	c.elapsed += time.Since(start)
	c.used = c.used.plus(before.since())
	return nil
}

// checkSetup looks the type up and runs one batch-sized warm-up
// campaign, the work a campaign does before its first full batch, and
// reports the CPU seconds that took. Its wall time, about 6 ms, swung by
// a third between runs of the same code with the host's load.
func checkSetup(seed int64) (spec.DataType, float64, error) {
	before := readUsage()
	dt, err := adt.Lookup("queue")
	if err != nil {
		return nil, 0, err
	}
	opts := checkOptions(dt, harness.DeriveSeed(seed, "perfbench/check/warm"))
	opts.Budget = 64
	if _, err := adversary.Fuzz(opts); err != nil {
		return nil, 0, err
	}
	return dt, before.since().cpuS, nil
}

func runCheck(o options) (*result, error) {
	if o.trace {
		return runCheckTraced(o)
	}
	dt, err := adt.Lookup("queue")
	if err != nil {
		return nil, err
	}
	// The first campaigns after an idle spell ran up to twice as slow:
	// timing starts once the host and the runtime have warmed.
	if err := new(campaigns).run(dt, harness.DeriveSeed(o.seed, "perfbench/check/warm-up"), checkWarmUp); err != nil {
		return nil, err
	}
	// One set-up is timed before each stretch of the window's campaigns,
	// so the set-ups sample the whole run and a burst of load on the host
	// moves few of them.
	window := time.Duration(o.seconds * float64(time.Second))
	c := &campaigns{}
	var setups []float64
	for i := 0; i < setupRuns; i++ {
		_, setup, err := checkSetup(o.seed)
		if err != nil {
			return nil, err
		}
		setups = append(setups, setup)
		if err := c.run(dt, o.seed, window/setupRuns); err != nil {
			return nil, err
		}
	}
	res := &result{attempted: c.schedules, failed: c.violations, values: map[string]float64{
		"setup_s":         quantile(setups, 0.5),
		"latency_mean_ms": mean(c.cpu),
	}}
	p, f := checkParams, formulaTicksFor(checkParams)
	fmt.Printf("reference n=%d d=%d u=%d eps=%d X=%d formula_ticks aop=%d mop=%d oop=%d budget=%d workers=%d\n",
		p.N, p.D, p.U, p.Epsilon, p.X, f[0], f[1], f[2], checkBudget, runtime.GOMAXPROCS(0))
	fmt.Printf("end_to_end schedules_per_sec=%.1f cpu_ms_per_op=%.4f campaigns=%d campaign_wall_p50_ms=%.3f campaign_wall_p99_ms=%.3f campaign_cpu_p50_ms=%.3f campaign_cpu_p99_ms=%.3f campaign_cpu_mean_ms=%.3f signatures_per_campaign=%.1f peak_rss_mb=%.1f\n",
		float64(c.schedules)/c.elapsed.Seconds(), cpuPerOp(c.used, c.schedules)*1000, c.n, quantile(c.wall, 0.50), quantile(c.wall, 0.99),
		quantile(c.cpu, 0.50), quantile(c.cpu, 0.99), res.values["latency_mean_ms"], float64(c.signatures)/float64(c.n), peakRSSMB())
	fmt.Printf("check attempted=%d failed=%d failed_share=%.4f\n",
		res.attempted, res.failed, float64(res.failed)/float64(res.attempted))
	return res, nil
}

// randomSchedule draws an admissible schedule the way the fuzzer's
// random strategy does: skewed clock offsets, delays at and between the
// envelope's ends, and up to three queue operations per process.
func randomSchedule(p simtime.Params, dt spec.DataType, rng *rand.Rand) adversary.Schedule {
	s := adversary.Schedule{
		Offsets: make([]simtime.Duration, p.N),
		Delays:  make([]simtime.Duration, 96),
		Plans:   make([][]adversary.PlannedOp, p.N),
	}
	for i := range s.Offsets {
		s.Offsets[i] = simtime.Duration(rng.Int63n(int64(p.Epsilon) + 1))
	}
	for i := range s.Delays {
		s.Delays[i] = p.MinDelay() + simtime.Duration(rng.Int63n(int64(p.U)+1))
	}
	ops := dt.Ops()
	gaps := []simtime.Duration{0, 1, p.Epsilon / 2, p.Epsilon, p.X, p.U + p.Epsilon}
	for proc := range s.Plans {
		count := rng.Intn(3)
		if proc == 1 {
			count++
		}
		for k := 0; k < count; k++ {
			info := ops[rng.Intn(len(ops))]
			s.Plans[proc] = append(s.Plans[proc], adversary.PlannedOp{
				Op: info.Name, Arg: info.Args[rng.Intn(len(info.Args))], Gap: gaps[rng.Intn(len(gaps))],
			})
		}
	}
	return s
}

// scheduleLoop runs generated schedules through one Runner for the
// window. Traced, it times each Runner.Run and then times the checker
// alone on the same trace, so sim time is Run minus the check.
type scheduleLoop struct {
	n, violations, explored, msgs int64
	runTime, checkTime            time.Duration // traced only
	elapsed                       time.Duration
	histories                     [][]sim.OpRecord
	ticks                         [3][]float64
}

func runScheduleLoop(dt spec.DataType, seed int64, window time.Duration, traced bool) (*scheduleLoop, error) {
	runner := &adversary.Runner{Params: checkParams, DT: dt, Target: adversary.Target{Algorithm: harness.AlgCore}, Trace: sim.TraceOps}
	classes := harness.ClassesFor(dt)
	rng := rand.New(rand.NewSource(harness.DeriveSeed(seed, "perfbench/schedules")))
	l := &scheduleLoop{}
	start := time.Now()
	for time.Since(start) < window {
		s := randomSchedule(checkParams, dt, rng)
		if !traced {
			out, err := runner.Run(s)
			if err != nil {
				return nil, err
			}
			l.n++
			if out.Violation() != "" {
				l.violations++
			}
			continue
		}
		t0 := time.Now()
		out, err := runner.Run(s)
		t1 := time.Now()
		if err != nil {
			return nil, err
		}
		check := lincheck.CheckTraceParallel(dt, out.Trace, 2)
		t2 := time.Now()
		l.n++
		if out.Violation() != "" {
			l.violations++
		}
		l.checkTime += t2.Sub(t1)
		l.runTime += t1.Sub(t0)
		l.explored += int64(check.Explored)
		l.msgs += int64(len(out.Trace.Msgs))
		if len(l.histories) < 2000 {
			l.histories = append(l.histories, out.Trace.Ops)
		}
		for _, op := range out.Trace.Ops {
			c := classIndex(classes[op.Op])
			l.ticks[c] = append(l.ticks[c], float64(op.RespondTime.Sub(op.InvokeTime)))
		}
	}
	l.elapsed = time.Since(start)
	return l, nil
}

// runCheckTraced splits the window in three: fuzz campaigns (signatures
// and runtime counters), then the same generated schedules untraced and
// traced, whose rates give the tracing overhead.
func runCheckTraced(o options) (*result, error) {
	dt, _, err := checkSetup(o.seed)
	if err != nil {
		return nil, err
	}
	third := time.Duration(o.seconds / 3 * float64(time.Second))
	c := &campaigns{}
	if err := c.run(dt, o.seed, third); err != nil {
		return nil, err
	}
	rssMB := peakRSSMB()
	base, err := runScheduleLoop(dt, o.seed, third, false)
	if err != nil {
		return nil, err
	}
	tr, err := runScheduleLoop(dt, o.seed, third, true)
	if err != nil {
		return nil, err
	}
	v := map[string]float64{}
	n := float64(tr.n)
	v["lincheck.us_per_schedule"] = float64(tr.checkTime.Microseconds()) / n
	v["lincheck.explored_per_schedule"] = float64(tr.explored) / n
	v["sim.run_us_per_schedule"] = float64((tr.runTime - tr.checkTime).Microseconds()) / n
	v["sim.msgs_per_schedule"] = float64(tr.msgs) / n
	v["adversary.signatures"] = float64(c.signatures) / float64(c.n)
	v["latency_p99_ms"] = quantile(c.cpu, 0.99)
	types := make([]spec.DataType, len(tr.histories))
	for i := range types {
		types[i] = dt
	}
	replayApply(v, types, tr.histories)
	overFormula(v, tr.ticks, formulaTicksFor(checkParams))
	runtimeMetrics(v, c.used, c.schedules)
	v["runtime.peak_rss_mb"] = rssMB
	// The traced loop also re-ran every check; that time is the
	// measurement, not the overhead.
	baseRate := float64(base.n) / base.elapsed.Seconds()
	tracedRate := n / (tr.elapsed - tr.checkTime).Seconds()
	v["trace.overhead_share"] = baseRate/tracedRate - 1
	for _, m := range servingOnlyLayers {
		v[m] = 0
	}
	return &result{attempted: c.schedules + base.n + tr.n, failed: c.violations + base.violations + tr.violations, values: v}, nil
}
