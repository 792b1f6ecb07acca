package adversary

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"lintime/internal/harness"
	"lintime/internal/obs"
	"lintime/internal/quorum"
	"lintime/internal/sim"
	"lintime/internal/simtime"
	"lintime/internal/spec"
)

// Campaign throughput counters on the process-wide registry: a scraper
// differentiates schedules_total into schedules/sec, and the novelty
// hit rate is novelty_hits_total / schedules_total.
var (
	schedulesTotal  = obs.Default.Counter("adversary_schedules_total")
	noveltyHits     = obs.Default.Counter("adversary_novelty_hits_total")
	violationsTotal = obs.Default.Counter("adversary_violations_total")
	mutantKills     = obs.Default.Counter("adversary_mutant_kills_total")
)

// batchSize is the number of schedules evaluated between feedback points.
// The coverage pool and the stop-early decision are updated only at batch
// boundaries, in index order, so the set of schedules a fuzz run evaluates
// depends on (seed, budget, strategies) alone — never on parallelism.
const batchSize = 64

// poolCap bounds the coverage strategy's novelty pool (oldest evicted).
const poolCap = 128

// Options configures a fuzzing campaign.
type Options struct {
	Params simtime.Params
	DT     spec.DataType
	Target Target
	Seed   int64
	Budget int // total schedules to evaluate (rounded up to a batch)
	// Strategies to interleave (round-robin by schedule index); nil
	// selects all of Strategies().
	Strategies []string
	// Parallel is the worker count for batch evaluation (harness
	// semantics: < 1 selects GOMAXPROCS).
	Parallel int
	// StopEarly stops at the end of the first batch containing a
	// violation — the mode used for mutant hunts, where one
	// counterexample suffices.
	StopEarly bool
	// Shrink reduces each reported violation to a minimal schedule.
	Shrink bool
}

// Violation is one schedule that broke a checked property.
type Violation struct {
	Index      int    // schedule index within the campaign
	Strategy   string // generating strategy
	Kind       string // KindNonLinearizable, KindDiverged, KindIncomplete
	Schedule   Schedule
	Shrunk     *Schedule // minimal reduction (when Options.Shrink)
	ShrunkKind string    // violation kind of the shrunk schedule
	Runs       int       // shrinker executions spent
}

// Report summarizes a fuzzing campaign.
type Report struct {
	Target     Target
	Schedules  int // schedules evaluated
	Signatures int // distinct event-ordering signatures observed
	ByStrategy map[string]int
	Violations []Violation
}

// Fuzz runs a campaign and returns its report. The report is a pure
// function of Options (minus Parallel): batches fan out through
// harness.RunIndexed with per-index derived seeds and fold results in
// index order.
func Fuzz(opts Options) (*Report, error) {
	p := opts.Params
	if err := p.Validate(); err != nil {
		return nil, err
	}
	// Crash-tolerant targets get the fault axes (crashes, drops) mixed
	// into random and coverage candidates plus the deterministic
	// faultcorner strategy; the boundary strategy stays fault-free (its
	// rule-based schedules probe the timing bounds, which assume reliable
	// delivery). Against reliable targets the default strategy set drops
	// faultcorner silently — so existing campaigns are byte-identical —
	// while requesting it explicitly is an error.
	faults := opts.Target.SupportsFaults()
	explicit := len(opts.Strategies) > 0
	requested := opts.Strategies
	if !explicit {
		requested = Strategies()
	}
	enabled := make([]string, 0, len(requested))
	for _, s := range requested {
		switch s {
		case StratBoundary, StratRandom, StratCoverage:
			enabled = append(enabled, s)
		case StratFaultCorner:
			if !faults {
				if explicit {
					return nil, fmt.Errorf("adversary: strategy %q applies only to crash-tolerant targets (have %s)", s, opts.Target)
				}
				continue
			}
			enabled = append(enabled, s)
		default:
			return nil, fmt.Errorf("adversary: unknown strategy %q (have %s)", s, strings.Join(Strategies(), ", "))
		}
	}
	if len(enabled) == 0 {
		return nil, fmt.Errorf("adversary: no applicable strategies for target %s", opts.Target)
	}
	if opts.Budget <= 0 {
		opts.Budget = batchSize
	}
	ops := opsFor(opts.DT)
	var corners []candidate
	if faults {
		corners = faultCorners(p, ops)
	}
	boundary := newBoundarySource(p, ops)
	// The campaign never reads Steps: coverage signatures come from the
	// engine's incremental hash, so the runner skips recording them.
	runner := &Runner{Params: p, DT: opts.DT, Target: opts.Target, Trace: sim.TraceOps}

	rep := &Report{Target: opts.Target, ByStrategy: map[string]int{}}
	seen := map[uint64]bool{}
	var pool []Schedule // coverage novelty pool, index order

	type slot struct {
		strategy string
		sched    Schedule
		outcome  *Outcome
	}

	for base := 0; base < opts.Budget; base += batchSize {
		count := batchSize
		if base+count > opts.Budget {
			count = opts.Budget - base
		}
		// Snapshot the pool: workers read it concurrently while the fold
		// below (after the batch barrier) is the only writer.
		poolSnap := append([]Schedule(nil), pool...)
		slots := make([]slot, count)
		err := harness.RunIndexed(count, opts.Parallel, func(k int) error {
			i := base + k
			strat := enabled[i%len(enabled)]
			ordinal := i / len(enabled)
			var (
				sched Schedule
				out   *Outcome
				err   error
			)
			switch strat {
			case StratBoundary:
				cand := boundary.candidateAt(p, ops, opts.Seed, ordinal)
				sched, out, err = runner.RunRule(cand.offsets, cand.plans, cand.net)
			case StratRandom:
				cand := randomCandidate(p, ops, opts.Seed, "random", ordinal, faults)
				sched = cand.sched
				out, err = runner.Run(sched)
			case StratCoverage:
				if len(poolSnap) == 0 {
					cand := randomCandidate(p, ops, opts.Seed, "coverage-seed", ordinal, faults)
					sched = cand.sched
				} else {
					rng := harness.AcquireRand(harness.DeriveSeed(opts.Seed, "adversary/coverage/"+strconv.Itoa(ordinal)))
					parent := poolSnap[rng.Intn(len(poolSnap))]
					sched = mutateSchedule(parent, p, ops, rng, faults)
					harness.ReleaseRand(rng)
				}
				out, err = runner.Run(sched)
			case StratFaultCorner:
				if len(corners) == 0 { // degenerate n: no corners apply
					cand := randomCandidate(p, ops, opts.Seed, "faultcorner-fill", ordinal, faults)
					sched = cand.sched
				} else {
					sched = corners[ordinal%len(corners)].sched
				}
				out, err = runner.Run(sched)
			}
			if err != nil {
				return err
			}
			slots[k] = slot{strategy: strat, sched: sched, outcome: out}
			return nil
		})
		if err != nil {
			return nil, err
		}
		// Fold in index order: coverage pool, signature set, violations.
		batchViolated := false
		for k := 0; k < count; k++ {
			sl := slots[k]
			rep.Schedules++
			schedulesTotal.Inc()
			rep.ByStrategy[sl.strategy]++
			sig := sl.outcome.Signature()
			if !seen[sig] {
				seen[sig] = true
				noveltyHits.Inc()
				if len(pool) == poolCap {
					pool = pool[1:]
				}
				pool = append(pool, sl.sched)
			}
			if kind := sl.outcome.Violation(); kind != "" {
				batchViolated = true
				violationsTotal.Inc()
				v := Violation{
					Index:    base + k,
					Strategy: sl.strategy,
					Kind:     kind,
					Schedule: sl.sched,
				}
				if opts.Shrink {
					shrunk, shrunkKind, runs, err := Shrink(runner, sl.sched, ShrinkOptions{})
					if err != nil {
						return nil, err
					}
					v.Shrunk = &shrunk
					v.ShrunkKind = shrunkKind
					v.Runs = runs
				}
				rep.Violations = append(rep.Violations, v)
			}
		}
		if opts.StopEarly && batchViolated {
			break
		}
	}
	rep.Signatures = len(seen)
	return rep, nil
}

// KillEntry is one row of a mutant kill matrix.
type KillEntry struct {
	Mutant     string
	Desc       string
	Killed     bool
	Kind       string // violation kind that killed it
	Schedules  int    // schedules evaluated before the kill (or budget)
	Shrunk     *Schedule
	ShrunkKind string
}

// KillMatrix fuzzes every seeded mutant (plus the correct algorithm as a
// control) with the given per-mutant budget and reports which died. The
// control row has Mutant == "correct" and must never be killed.
func KillMatrix(opts Options) ([]KillEntry, error) {
	targets := []Mutant{{Name: Correct}}
	controlDesc := "corrected Algorithm 1 (control)"
	if opts.Target.Algorithm == harness.AlgQuorum {
		controlDesc = "correct ABD quorum register (control)"
		for _, m := range quorum.Mutants() {
			targets = append(targets, Mutant{Name: m.Name, Desc: m.Desc})
		}
	} else {
		targets = append(targets, Mutants()...)
	}
	entries := make([]KillEntry, 0, len(targets))
	for _, m := range targets {
		o := opts
		o.Target = Target{Algorithm: opts.Target.Algorithm, Mutant: m.Name}
		o.StopEarly = true
		rep, err := Fuzz(o)
		if err != nil {
			return nil, err
		}
		e := KillEntry{
			Mutant:    m.Name,
			Desc:      m.Desc,
			Killed:    len(rep.Violations) > 0,
			Schedules: rep.Schedules,
		}
		if e.Mutant == Correct {
			e.Mutant = "correct"
			e.Desc = controlDesc
		}
		if e.Killed {
			mutantKills.Inc()
			v := rep.Violations[0]
			e.Kind = v.Kind
			e.Schedules = v.Index + 1
			e.Shrunk = v.Shrunk
			e.ShrunkKind = v.ShrunkKind
		}
		entries = append(entries, e)
	}
	return entries, nil
}

// SortedStrategies returns the strategy names of a report's counter map
// in fixed registry order (for deterministic rendering).
func (r *Report) SortedStrategies() []string {
	names := make([]string, 0, len(r.ByStrategy))
	for _, s := range Strategies() {
		if r.ByStrategy[s] > 0 {
			names = append(names, s)
		}
	}
	// Defensive: include any unknown keys deterministically.
	extra := make([]string, 0)
	for s := range r.ByStrategy {
		switch s {
		case StratBoundary, StratRandom, StratCoverage, StratFaultCorner:
		default:
			extra = append(extra, s)
		}
	}
	sort.Strings(extra)
	return append(names, extra...)
}
