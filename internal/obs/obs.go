// Package obs is the repository's zero-dependency observability core:
// sharded atomic counters, gauges, high-water marks, fixed-bucket latency
// histograms with exact quantiles, a named-metric registry with
// Prometheus/expvar/JSON exposition, a periodic JSONL snapshot writer,
// and lightweight span tracing that follows one operation through the
// simulator or the real-time substrate.
//
// Everything here is stdlib-only and built for hot paths: recording a
// sample is a handful of atomic operations, instruments are plain struct
// pointers the instrumented code captures once (never a map lookup per
// event), and a nil span tracer means tracing is off, so untraced runs
// pay a single predictable branch. The paper's whole contribution is
// latency accounting — |AOP| = d−X+ε, |MOP| = X+ε, |OOP| = d+ε — and this
// package is what lets a live cluster be held to those formulas while it
// runs, instead of only in post-hoc load reports.
package obs

import (
	"sync/atomic"
	"unsafe"
)

// nShards is the stripe count of a Counter. Fixed at a small power of two:
// enough stripes that concurrent writers on a many-core box rarely collide
// on a cache line, small enough that reading a counter stays trivial.
const nShards = 32

// stripe is one cache-line-padded counter shard. 64-byte alignment keeps
// two stripes from sharing a line, which is the entire point of striping.
type stripe struct {
	v atomic.Int64
	_ [56]byte
}

// shardIndex picks a stripe for the calling goroutine. Goroutine stacks
// live at distinct addresses, so folding the address of a stack variable
// into the index spreads concurrent writers across stripes without any
// per-goroutine state or runtime hooks. The pointer never escapes — it is
// only folded into an integer — so the probe costs nothing.
func shardIndex() int {
	var probe byte
	p := uintptr(unsafe.Pointer(&probe))
	return int((p>>10)^(p>>16)) & (nShards - 1)
}

// Counter is a monotonically increasing, write-striped counter. Adds from
// different goroutines usually land on different cache lines; Value folds
// the stripes. The zero value is ready to use.
type Counter struct {
	shards [nShards]stripe
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds delta (callers keep deltas non-negative; a Counter is
// monotone by convention, which the Prometheus exposition relies on).
func (c *Counter) Add(delta int64) { c.shards[shardIndex()].v.Add(delta) }

// Value returns the current total.
func (c *Counter) Value() int64 {
	var sum int64
	for i := range c.shards {
		sum += c.shards[i].v.Load()
	}
	return sum
}

// Gauge is a last-write-wins instantaneous value. The zero value is ready
// to use.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the gauge by delta (e.g. in-flight tracking).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Max is a high-water-mark gauge: Observe keeps the largest value seen.
// The zero value reports 0 until the first observation.
type Max struct {
	v atomic.Int64
}

// Observe raises the mark to v if v is larger.
func (m *Max) Observe(v int64) {
	for {
		cur := m.v.Load()
		if v <= cur {
			return
		}
		if m.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value returns the high-water mark.
func (m *Max) Value() int64 { return m.v.Load() }
