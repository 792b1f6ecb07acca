package adt

import "lintime/internal/spec"

// Queue operation names.
const (
	OpEnqueue = "enqueue"
	OpDequeue = "dequeue"
	OpPeek    = "peek"
)

// EmptyMarker is returned by dequeue/pop/peek on an empty container.
const EmptyMarker = "empty"

// Queue is a FIFO queue over int items (Table 2 of the paper).
//
// Operations:
//
//	enqueue(v, ⊥) — pure mutator, transposable and last-sensitive.
//	dequeue(⊥, v) — mixed (accessor+mutator), pair-free; returns and
//	                removes the head, or "empty".
//	peek(⊥, v)    — pure accessor; returns the head without removing it.
type Queue struct{}

// NewQueue returns the FIFO queue data type.
func NewQueue() *Queue { return &Queue{} }

// Name implements spec.DataType.
func (q *Queue) Name() string { return "queue" }

// Ops implements spec.DataType.
func (q *Queue) Ops() []spec.OpInfo {
	return []spec.OpInfo{
		{Name: OpEnqueue, Args: intArgs(4)},
		{Name: OpDequeue, Args: []spec.Value{nil}},
		{Name: OpPeek, Args: []spec.Value{nil}},
	}
}

// Initial implements spec.DataType.
func (q *Queue) Initial() spec.State { return emptyQueue }

// queueState is immutable, so states are shared by pointer: an operation
// that leaves the queue unchanged returns its receiver without boxing a
// copy into a new interface value.
type queueState struct {
	items []int // head at index 0; never mutated in place
}

var emptyQueue = &queueState{}

func (s *queueState) Apply(op string, arg spec.Value) (spec.Value, spec.State) {
	switch op {
	case OpEnqueue:
		v, ok := arg.(int)
		if !ok {
			return errValue(op, arg), s
		}
		next := make([]int, len(s.items)+1)
		copy(next, s.items)
		next[len(s.items)] = v
		return nil, &queueState{items: next}
	case OpDequeue:
		if len(s.items) == 0 {
			return EmptyMarker, s
		}
		return s.items[0], &queueState{items: s.items[1:]}
	case OpPeek:
		if len(s.items) == 0 {
			return EmptyMarker, s
		}
		return s.items[0], s
	default:
		return errValue(op, arg), s
	}
}

func (s *queueState) Fingerprint() string { return intsFingerprint("queue:", s.items) }
