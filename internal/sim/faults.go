package sim

import (
	"fmt"

	"lintime/internal/obs"
	"lintime/internal/simtime"
)

var crashesInjected = obs.Default.Counter("crashes_injected")

// FaultPlan describes the fault axes of one run: per-process crash times
// and per-message loss. Both axes extend the explicit delay-vector
// adversary format — a crash is one scheduled tick after which a process
// neither sends nor receives, and a drop names a send ordinal that is
// lost in transit.
//
// The crash model is crash-stop: a crashed process takes no further
// steps. Events already scheduled at a crashed process are consumed
// silently (deliveries are marked Dropped in the trace, timers and
// invocations vanish), and since a crashed process never handles an
// event it never sends after its crash time.
type FaultPlan struct {
	// Crashes holds one crash time per process (simtime.Infinity =
	// never crashes). Empty means no crashes.
	Crashes []simtime.Time
	// Drops lists 0-based send ordinals (the engine's global message
	// counter) whose messages are lost in transit: the send happens and
	// is recorded, but no delivery is ever scheduled.
	Drops []int64
}

// NumCrashed returns the number of processes with a finite crash time.
func (f FaultPlan) NumCrashed() int {
	n := 0
	for _, c := range f.Crashes {
		if c != simtime.Infinity {
			n++
		}
	}
	return n
}

// SetFaults installs a fault plan for the next run. Must be called after
// Reset and before the first event is processed; Reset clears any
// installed plan, so pooled engines never inherit a previous run's
// faults.
func (e *Engine) SetFaults(f FaultPlan) error {
	if e.started {
		panic("sim: SetFaults after the run started")
	}
	if len(f.Crashes) != 0 && len(f.Crashes) != e.params.N {
		return fmt.Errorf("sim: %d crash times for N=%d", len(f.Crashes), e.params.N)
	}
	for p, c := range f.Crashes {
		if c < 0 {
			return fmt.Errorf("sim: crash time %v for p%d is negative", c, p)
		}
	}
	for _, ix := range f.Drops {
		if ix < 0 {
			return fmt.Errorf("sim: drop index %d is negative", ix)
		}
	}
	e.crashes = append(e.crashes[:0], f.Crashes...)
	if e.drops == nil {
		e.drops = make(map[int64]bool, len(f.Drops))
	}
	for _, ix := range f.Drops {
		e.drops[ix] = true
	}
	e.trace.Crashes = append([]simtime.Time(nil), f.Crashes...)
	e.trace.Drops = append([]int64(nil), f.Drops...)
	crashesInjected.Add(int64(f.NumCrashed()))
	return nil
}

// CrashAt crash-stops process p at real time t, which must not be in the
// past: from t on p takes no step, exactly as under a FaultPlan crash. It
// may be called while a run is in progress, which is how a wall-clock
// driver injects a crash the moment it is asked to. An earlier crash time
// already set for p stands. CrashAt does not count toward
// crashes_injected; the caller that decided on the crash counts it.
func (e *Engine) CrashAt(p ProcID, t simtime.Time) {
	if t < e.now {
		panic(fmt.Sprintf("sim: crash of p%d at %v is in the past (now %v)", p, t, e.now))
	}
	if len(e.crashes) == 0 {
		for range e.params.N {
			e.crashes = append(e.crashes, simtime.Infinity)
		}
	}
	if t < e.crashes[p] {
		e.crashes[p] = t
	}
	e.trace.Crashes = append([]simtime.Time(nil), e.crashes...)
}

// crashedAt reports whether process p has crashed by real time t under
// the installed fault plan.
func (e *Engine) crashedAt(p ProcID, t simtime.Time) bool {
	return len(e.crashes) > 0 && e.crashes[p] != simtime.Infinity && t >= e.crashes[p]
}
