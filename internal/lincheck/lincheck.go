// Package lincheck decides linearizability of recorded histories against
// a sequential specification, implementing the correctness condition of
// Section 2.3 of the paper: a history is linearizable iff there is a
// permutation of its operation instances that (i) is legal for the data
// type and (ii) preserves the real-time order of non-overlapping
// instances.
//
// The checker is a Wing–Gong style depth-first search over linearization
// prefixes, memoized on (set of linearized ops, object state fingerprint)
// so equivalent prefixes are explored once. The search runs on an
// explicit stack (no recursion), and the memo key is a fixed-width taken
// bitmap with the state fingerprint appended, assembled in a reused
// scratch buffer — the key allocates only when a failed state is
// inserted, never on lookup. Pending invocations (from chopped run
// fragments) may take effect with any legal response or be dropped, per
// the standard completion rule. CheckParallel additionally splits the
// top-level branches of the search across worker goroutines for large
// independent histories.
package lincheck

import (
	"sort"
	"sync"

	"lintime/internal/sim"
	"lintime/internal/simtime"
	"lintime/internal/spec"
)

// Op is one operation instance of a history with its real-time interval.
// A pending operation has Respond == simtime.Infinity and its Ret is
// ignored. Proc is informational for the plain checker (real-time order
// alone decides linearizability) but load-bearing for the strong checker's
// prefix trees, where events from different histories are identified by
// (time, process, operation).
type Op struct {
	ID      int
	Proc    int
	Name    string
	Arg     spec.Value
	Ret     spec.Value
	Invoke  simtime.Time
	Respond simtime.Time
}

// Pending reports whether the operation never responded.
func (o Op) Pending() bool { return o.Respond == simtime.Infinity }

// FromTrace extracts the checker's history from a simulation trace,
// including pending invocations.
func FromTrace(tr *sim.Trace) []Op {
	ops := make([]Op, 0, len(tr.Ops))
	for i, rec := range tr.Ops {
		ops = append(ops, Op{
			ID:      i,
			Proc:    int(rec.Proc),
			Name:    rec.Op,
			Arg:     rec.Arg,
			Ret:     rec.Ret,
			Invoke:  rec.InvokeTime,
			Respond: rec.RespondTime,
		})
	}
	return ops
}

// Result reports the outcome of a check.
type Result struct {
	Linearizable bool
	// Linearization is a witness permutation when Linearizable is true.
	Linearization []spec.Instance
	// Explored counts visited search states, as a cost metric.
	Explored int
}

// sortOps returns a copy of the history in deterministic exploration
// order: by invocation time, ties by ID.
func sortOps(history []Op) []Op {
	ops := append([]Op(nil), history...)
	sort.Slice(ops, func(i, j int) bool {
		if ops[i].Invoke != ops[j].Invoke {
			return ops[i].Invoke < ops[j].Invoke
		}
		return ops[i].ID < ops[j].ID
	})
	return ops
}

// Check decides whether the history is linearizable with respect to dt.
func Check(dt spec.DataType, history []Op) Result {
	ops := sortOps(history)
	c := newChecker(dt, ops)
	lin, ok := c.search(dt.Initial(), completedLeftInit(ops))
	if !ok {
		return Result{Linearizable: false, Explored: c.visited}
	}
	return Result{Linearizable: true, Linearization: lin, Explored: c.visited}
}

// CheckTrace is shorthand for Check(dt, FromTrace(tr)).
func CheckTrace(dt spec.DataType, tr *sim.Trace) Result {
	return Check(dt, FromTrace(tr))
}

type checker struct {
	dt      spec.DataType
	ops     []Op
	taken   []bool
	memo    map[string]struct{} // key → known-failed
	keyBuf  []byte              // scratch for memo keys; reused across states
	visited int
}

func newChecker(dt spec.DataType, ops []Op) *checker {
	return &checker{
		dt:     dt,
		ops:    ops,
		taken:  make([]bool, len(ops)),
		memo:   map[string]struct{}{},
		keyBuf: make([]byte, 0, (len(ops)+7)/8+32),
	}
}

// buildKey assembles the memo key for the current taken set and the given
// state fingerprint into the reused scratch buffer: a fixed-width bitmap
// of taken ops with the fingerprint appended (no separator needed — the
// bitmap width is constant for a history).
func (c *checker) buildKey(fp string) []byte {
	nb := (len(c.taken) + 7) / 8
	buf := c.keyBuf[:0]
	for i := 0; i < nb; i++ {
		buf = append(buf, 0)
	}
	for i, t := range c.taken {
		if t {
			buf[i/8] |= 1 << (i % 8)
		}
	}
	buf = append(buf, fp...)
	c.keyBuf = buf[:0]
	return buf
}

// knownFailed reports whether the current (taken set, state) was already
// proven a dead end. The map lookup through string(buf) does not allocate.
func (c *checker) knownFailed(fp string) bool {
	buf := c.buildKey(fp)
	_, bad := c.memo[string(buf)]
	return bad
}

// markFailed records the current (taken set, state) as a dead end. This is
// the only place a key escapes into the map (one allocation per failed
// state).
func (c *checker) markFailed(fp string) {
	c.memo[string(c.buildKey(fp))] = struct{}{}
}

// frame is one level of the explicit search stack: a reached state plus
// the iteration cursor over its untried extension candidates.
type frame struct {
	state spec.State
	fp    string // state.Fingerprint(), computed once per frame
	// minRespond is the earliest response among ops untaken at frame
	// entry: any op invoked after it cannot be linearized next.
	minRespond simtime.Time
	next       int // next candidate op index to try
	left       int // completed ops still to linearize
	via        int // op index taken to enter this frame (-1 at the root)
	viaRet     spec.Value
}

func (c *checker) newFrame(st spec.State, fp string, left, via int, viaRet spec.Value) frame {
	minRespond := simtime.Infinity
	for i, t := range c.taken {
		if !t && c.ops[i].Respond < minRespond {
			minRespond = c.ops[i].Respond
		}
	}
	return frame{state: st, fp: fp, minRespond: minRespond, left: left, via: via, viaRet: viaRet}
}

// search tries to linearize the remaining ops from the given state using
// an explicit stack, and returns a witness permutation in linearization
// order. The caller's taken set must reflect ops already linearized.
func (c *checker) search(state spec.State, completedLeft int) ([]spec.Instance, bool) {
	c.visited++
	if completedLeft == 0 {
		// All completed ops linearized; pending ops may be dropped.
		return nil, true
	}
	rootFP := state.Fingerprint()
	if c.knownFailed(rootFP) {
		return nil, false
	}
	stack := make([]frame, 1, len(c.ops)+1)
	stack[0] = c.newFrame(state, rootFP, completedLeft, -1, nil)
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		descended := false
		for f.next < len(c.ops) {
			i := f.next
			f.next++
			if c.taken[i] {
				continue
			}
			op := &c.ops[i]
			if op.Invoke > f.minRespond {
				continue // some untaken op responded before this one was invoked
			}
			ret, next := f.state.Apply(op.Name, op.Arg)
			if !op.Pending() && !spec.ValuesEqual(ret, op.Ret) {
				continue // recorded response would be illegal here
			}
			left := f.left
			if !op.Pending() {
				left--
			}
			c.taken[i] = true
			c.visited++
			if left == 0 {
				// Success: the stack path plus this op is a witness.
				lin := make([]spec.Instance, 0, len(stack))
				for _, fr := range stack[1:] {
					o := &c.ops[fr.via]
					lin = append(lin, spec.Instance{Op: o.Name, Arg: o.Arg, Ret: fr.viaRet})
				}
				lin = append(lin, spec.Instance{Op: op.Name, Arg: op.Arg, Ret: ret})
				for _, fr := range stack[1:] {
					c.taken[fr.via] = false
				}
				c.taken[i] = false
				return lin, true
			}
			fp := next.Fingerprint()
			if c.knownFailed(fp) {
				c.taken[i] = false
				continue
			}
			stack = append(stack, c.newFrame(next, fp, left, i, ret))
			descended = true
			break
		}
		if descended {
			continue
		}
		// All extensions exhausted: record the dead end and backtrack.
		c.markFailed(f.fp)
		if f.via >= 0 {
			c.taken[f.via] = false
		}
		stack = stack[:len(stack)-1]
	}
	return nil, false
}

// completedLeftInit computes the initial count of completed ops.
func completedLeftInit(ops []Op) int {
	n := 0
	for _, op := range ops {
		if !op.Pending() {
			n++
		}
	}
	return n
}

// CheckParallel decides linearizability like Check, splitting the search
// frontier at the root: each viable first choice of the linearization is
// explored by an independent worker (with its own memo table), and workers
// run at most `workers` at a time. The result is deterministic — the
// witness comes from the lowest-indexed successful branch — and identical
// to Check's verdict. With workers < 2 or trivially small histories it
// falls back to the sequential search.
func CheckParallel(dt spec.DataType, history []Op, workers int) Result {
	ops := sortOps(history)
	completedLeft := completedLeftInit(ops)
	if workers < 2 || completedLeft == 0 || len(ops) < 2 {
		return Check(dt, history)
	}
	// Enumerate the viable first steps exactly as the sequential search
	// would at its root frame.
	minRespond := simtime.Infinity
	for _, op := range ops {
		if op.Respond < minRespond {
			minRespond = op.Respond
		}
	}
	initial := dt.Initial()
	type branch struct {
		idx  int
		ret  spec.Value
		next spec.State
		left int
	}
	var branches []branch
	for i, op := range ops {
		if op.Invoke > minRespond {
			continue
		}
		ret, next := initial.Apply(op.Name, op.Arg)
		if !op.Pending() && !spec.ValuesEqual(ret, op.Ret) {
			continue
		}
		left := completedLeft
		if !op.Pending() {
			left--
		}
		branches = append(branches, branch{idx: i, ret: ret, next: next, left: left})
	}
	type outcome struct {
		lin     []spec.Instance
		ok      bool
		visited int
	}
	outcomes := make([]outcome, len(branches))
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for bi := range branches {
		wg.Add(1)
		go func(bi int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			br := branches[bi]
			c := newChecker(dt, ops)
			c.taken[br.idx] = true
			lin, ok := c.search(br.next, br.left)
			if ok {
				first := ops[br.idx]
				lin = append([]spec.Instance{{Op: first.Name, Arg: first.Arg, Ret: br.ret}}, lin...)
			}
			outcomes[bi] = outcome{lin: lin, ok: ok, visited: c.visited + 1}
		}(bi)
	}
	wg.Wait()
	res := Result{}
	for _, o := range outcomes {
		res.Explored += o.visited
		if o.ok && !res.Linearizable {
			res.Linearizable = true
			res.Linearization = o.lin
		}
	}
	return res
}

// CheckTraceParallel is shorthand for CheckParallel(dt, FromTrace(tr), workers).
func CheckTraceParallel(dt spec.DataType, tr *sim.Trace, workers int) Result {
	return CheckParallel(dt, FromTrace(tr), workers)
}
