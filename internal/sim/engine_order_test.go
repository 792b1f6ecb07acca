package sim

import (
	"container/heap"
	"math/rand"
	"testing"

	"lintime/internal/simtime"
)

// legacyEventHeap is the pre-rewrite event queue (heap-boxed *event via
// container/heap), kept here verbatim as the ordering oracle for the
// value-typed 4-ary queue. If the two ever disagree on pop order, golden
// outputs across the whole pipeline would shift.
type legacyEventHeap []*event

func (h legacyEventHeap) Len() int { return len(h) }
func (h legacyEventHeap) Less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	if h[i].kind.rank() != h[j].kind.rank() {
		return h[i].kind.rank() < h[j].kind.rank()
	}
	return h[i].seq < h[j].seq
}
func (h legacyEventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *legacyEventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *legacyEventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}

// randomEvents builds a batch of events with heavy time/kind collisions
// so the rank and seq tie-breaks are exercised, not just the time key.
func randomEvents(rng *rand.Rand, n int) []event {
	evs := make([]event, n)
	kinds := []eventKind{evInvoke, evDeliver, evTimer}
	for i := range evs {
		evs[i] = event{
			// Small time range forces many exact-time collisions.
			time: simtime.Time(rng.Intn(n / 4)),
			kind: kinds[rng.Intn(len(kinds))],
			proc: ProcID(rng.Intn(8)),
			seq:  int64(i),
		}
	}
	return evs
}

// TestQueueMatchesLegacyHeapOrder pops randomized event sets from both
// implementations and requires identical order, including interleaved
// push/pop phases (a pure sort would not catch sift bugs that only
// appear when the heap shrinks and regrows).
func TestQueueMatchesLegacyHeapOrder(t *testing.T) {
	for trial := 0; trial < 200; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		n := 1 + rng.Intn(400)
		evs := randomEvents(rng, n+4)

		var q eventQueue
		legacy := &legacyEventHeap{}
		heap.Init(legacy)

		next := 0
		step := 0
		for next < len(evs) || q.len() > 0 {
			// Interleave: push a random-size burst, then pop a random-size
			// burst, so both heaps pass through many intermediate shapes.
			burst := 1 + rng.Intn(8)
			for i := 0; i < burst && next < len(evs); i++ {
				ev := evs[next]
				next++
				q.push(&ev)
				cp := ev
				heap.Push(legacy, &cp)
			}
			drain := rng.Intn(q.len() + 1)
			if next >= len(evs) {
				drain = q.len() // flush at the end
			}
			for i := 0; i < drain; i++ {
				var got event
				q.pop(&got)
				want := heap.Pop(legacy).(*event)
				if got.time != want.time || got.kind != want.kind || got.seq != want.seq {
					t.Fatalf("trial %d step %d: pop mismatch: got (t=%v kind=%d seq=%d), legacy (t=%v kind=%d seq=%d)",
						trial, step, got.time, got.kind, got.seq, want.time, want.kind, want.seq)
				}
				step++
			}
		}
		if legacy.Len() != 0 {
			t.Fatalf("trial %d: legacy heap not drained", trial)
		}
	}
}

// TestQueuePopReleasesPayload verifies popped slots are zeroed so payload
// references do not outlive the event (the value queue's backing array is
// retained across Engine.Reset, so a stale any would pin garbage).
func TestQueuePopReleasesPayload(t *testing.T) {
	var q eventQueue
	q.push(&event{time: 1, payload: "pinned"})
	q.push(&event{time: 2, payload: "pinned"})
	var got event
	q.pop(&got)
	q.pop(&got)
	for i, slot := range q.items[:cap(q.items)] {
		if slot.payload != nil {
			t.Fatalf("slot %d retains payload %v after pop", i, slot.payload)
		}
	}
}

// TestQueueResetRetainsCapacity pins the reuse contract bench numbers
// depend on: reset keeps the backing array.
func TestQueueResetRetainsCapacity(t *testing.T) {
	var q eventQueue
	for i := 0; i < 100; i++ {
		q.push(&event{time: simtime.Time(i)})
	}
	c := cap(q.items)
	q.reset()
	if q.len() != 0 {
		t.Fatalf("len %d after reset", q.len())
	}
	if cap(q.items) != c {
		t.Fatalf("reset dropped capacity: %d -> %d", c, cap(q.items))
	}
}
