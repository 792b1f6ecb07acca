package obs

import "fmt"

// Stage is one waypoint in an operation's lifecycle. The stages mirror
// the paper's timing diagram for Algorithm 1: the client invoke starts
// the span; a mutator's replica broadcast fans out; each delivery lands
// the update at a peer; the stabilization timer (the u+ε / X+ε wait)
// fires; the response closes the span.
type Stage uint8

// Lifecycle stages, in canonical order. StageDropped sits outside the
// happy path: it marks a delivery that reached a crashed process and was
// discarded instead of handled.
const (
	StageInvoke Stage = iota
	StageBroadcast
	StageDeliver
	StageTimer
	StageRespond
	StageDropped
)

// MarshalJSON renders the stage as its canonical name, so flight-recorder
// dumps and trace exports stay readable without the enum table.
func (s Stage) MarshalJSON() ([]byte, error) {
	return []byte(`"` + s.String() + `"`), nil
}

// String implements fmt.Stringer.
func (s Stage) String() string {
	switch s {
	case StageInvoke:
		return "invoke"
	case StageBroadcast:
		return "broadcast"
	case StageDeliver:
		return "deliver"
	case StageTimer:
		return "timer"
	case StageRespond:
		return "respond"
	case StageDropped:
		return "dropped"
	default:
		return fmt.Sprintf("Stage(%d)", uint8(s))
	}
}

// SpanEvent is one recorded waypoint. Span is the operation's SeqID
// (cluster- or engine-unique), or -1 for events no pending operation
// could be blamed for (e.g. a background timer on an idle process).
// Time is in virtual ticks on whichever substrate recorded the event.
//
// Sent and Residency are causal-delivery annotations, populated only for
// StageDeliver events recorded through the Tracer's Deliver hook:
// Sent is the tick the message left its sender, and Residency is the
// portion of the delivery delay spent waiting in a coalescing batch
// window rather than in flight.
type SpanEvent struct {
	Span      int64  `json:"span"`
	Stage     Stage  `json:"stage"`
	Proc      int32  `json:"proc"`
	Time      int64  `json:"time"`
	Op        string `json:"op,omitempty"` // set on StageInvoke only
	Sent      int64  `json:"sent,omitempty"`
	Residency int64  `json:"residency,omitempty"`
}

// Tracer observes operation lifecycles and assembles them into causal
// span trees. Implementations must be safe for concurrent use: the
// real-time substrate records from every process loop. A nil Tracer is
// the only "off" value; the substrates check for it once, at SetTracer
// time, and skip every hook while it is installed.
//
// Attribution leans on the model's one-pending-operation-per-process
// rule: OpStart makes span the process's current span, and the substrate
// stamps sends and timer registrations with CurrentSpan at the moment
// they happen — so a delivery or timer fire is attributed to the
// operation that caused it, even when it executes on another process or
// after the span moved on.
type Tracer interface {
	// OpStart records the invoke waypoint of a root span and makes span
	// the process's current span. parent is the span of the client-side
	// operation that caused this one (propagated through the wire
	// protocols), or -1 for a local root.
	OpStart(proc int32, span, parent int64, op string, now int64)
	// Event records an intermediate waypoint for span (-1 allowed).
	Event(span int64, stage Stage, proc int32, now int64)
	// Deliver is Event(span, StageDeliver, proc, now) plus delivery
	// accounting: the send tick and the batch-window residency portion of
	// the delay (0 for unbatched deliveries).
	Deliver(span int64, proc int32, now, sent, residency int64)
	// Child opens a named child span (e.g. a quorum phase) under parent.
	Child(proc int32, span, parent int64, name string, now int64)
	// ChildEnd closes a child span.
	ChildEnd(proc int32, span int64, now int64)
	// OpEnd records the respond waypoint and clears the process's current
	// span.
	OpEnd(proc int32, span int64, now int64)
	// CurrentSpan returns the process's current span, or -1.
	CurrentSpan(proc int32) int64
}
