package serve

import (
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"lintime/internal/adt"
	"lintime/internal/harness"
	"lintime/internal/obs"
)

// TestServerTracingEndToEnd drives a traced client over TCP against a
// server with the causal collector installed and checks the whole
// tracing contract on the real-time substrate: each server-side tree
// carries its request's client-side span as its causal parent, the
// attribution identity holds exactly (it is structural, so wall-clock
// jitter lands in skew_adjust rather than breaking the sum), and the
// per-term histograms stream onto the server's registry.
func TestServerTracingEndToEnd(t *testing.T) {
	s, err := New(testConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	coll := obs.NewCollector(64)
	s.SetTracer(coll)
	s.Start()
	t.Cleanup(func() { s.Drain(30 * time.Second) })
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(ln)

	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetTraced(true)
	if _, err := c.Call(adt.OpEnqueue, 7); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Call(adt.OpPeek, nil); err != nil {
		t.Fatal(err)
	}

	trees := s.TraceCollector().Trees()
	if len(trees) == 0 {
		t.Fatal("no causal trees retained")
	}
	dt, err := adt.Lookup("queue")
	if err != nil {
		t.Fatal(err)
	}
	classes := harness.ClassesFor(dt)
	p := testConfig(3).Params
	ap := obs.AttrParams{D: int64(p.D), U: int64(p.U), Epsilon: int64(p.Epsilon), X: int64(p.X)}
	// The client numbers requests from 1, and a traced request's id is
	// its client-side span.
	for _, tr := range trees {
		if tr.Parent != 1 && tr.Parent != 2 {
			t.Errorf("span %d (%s): parent %d, want one of the request ids 1, 2",
				tr.Span, tr.Op, tr.Parent)
		}
		a, ok := coll.Attribute(tr.Span, classes[tr.Op].String(), tr.Start, ap)
		if !ok {
			t.Fatalf("span %d: Attribute refused", tr.Span)
		}
		if got, lat := a.Sum(), tr.End-tr.Start; got != lat {
			t.Errorf("span %d (%s): terms sum to %d, latency %d: %v",
				tr.Span, tr.Op, got, lat, a)
		}
	}

	snap := obs.TakeSnapshot(s.Registry())
	termed := 0
	for name, h := range snap.Hists {
		if strings.HasPrefix(name, "trace_term_ticks{") && h.Count > 0 {
			termed++
		}
	}
	if termed == 0 {
		t.Errorf("no populated trace_term_ticks series on the registry: %v",
			len(snap.Hists))
	}
}

// TestServerTracingBinaryShardRouter carries trace context over the
// binary codec and through the shard router: every root retained by any
// shard's collector points back at a request id the traced client sent,
// the keys cover at least two shards, and an untraced binary client's
// operations are local roots (parent -1).
func TestServerTracingBinaryShardRouter(t *testing.T) {
	ss, err := NewShardSet(testShardConfig(3, 3))
	if err != nil {
		t.Fatal(err)
	}
	colls := make([]*obs.Collector, ss.Shards())
	ss.SetTracers(func(i int) obs.Tracer {
		colls[i] = obs.NewCollector(64)
		return colls[i]
	})
	ss.Start()
	t.Cleanup(func() { ss.Drain(30 * time.Second) })
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go ss.Serve(ln)

	// Pick keys until two shards are covered.
	var keys []string
	covered := map[int]bool{}
	for i := 0; len(covered) < 2; i++ {
		key := fmt.Sprintf("obj%d", i)
		keys = append(keys, key)
		covered[ss.ShardFor(key)] = true
	}

	traced, err := DialCodec(ln.Addr().String(), CodecBinary)
	if err != nil {
		t.Fatal(err)
	}
	defer traced.Close()
	traced.SetTraced(true)
	for _, key := range keys {
		if _, err := traced.CallKey(key, adt.OpEnqueue, 1); err != nil {
			t.Fatal(err)
		}
	}
	sent := map[int64]bool{}
	for id := int64(1); id <= traced.nextID.Load(); id++ {
		sent[id] = true
	}
	seen := map[int64]bool{} // (shard, span) packed, to tell the two phases apart
	withTrees := 0
	for i, coll := range colls {
		trees := coll.Trees()
		if len(trees) > 0 {
			withTrees++
		}
		for _, tr := range trees {
			seen[int64(i)<<32|tr.Span] = true
			if !sent[tr.Parent] {
				t.Errorf("shard %d span %d: parent %d is not a request id the traced client sent",
					i, tr.Span, tr.Parent)
			}
		}
	}
	if withTrees < 2 {
		t.Errorf("trees retained on %d shards, want >= 2", withTrees)
	}

	plain, err := DialCodec(ln.Addr().String(), CodecBinary)
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	for _, key := range keys {
		if _, err := plain.CallKey(key, adt.OpPeek, nil); err != nil {
			t.Fatal(err)
		}
	}
	fresh := 0
	for i, coll := range colls {
		for _, tr := range coll.Trees() {
			if seen[int64(i)<<32|tr.Span] {
				continue
			}
			fresh++
			if tr.Parent != -1 {
				t.Errorf("untraced shard %d span %d: parent %d, want -1", i, tr.Span, tr.Parent)
			}
		}
	}
	if fresh != len(keys) {
		t.Errorf("untraced client left %d new trees, want %d", fresh, len(keys))
	}
}

// With tracing off the registry must not even carry the term series —
// the gate is structural absence, not zero-valued presence.
func TestServerTracingOffNoTermSeries(t *testing.T) {
	s := startServer(t, 3)
	if _, err := s.Call(adt.OpEnqueue, 1); err != nil {
		t.Fatal(err)
	}
	if s.TraceCollector() != nil {
		t.Error("TraceCollector non-nil with tracing off")
	}
	for name := range obs.TakeSnapshot(s.Registry()).Hists {
		if strings.HasPrefix(name, "trace_term_ticks") {
			t.Errorf("tracing-off registry carries %s", name)
		}
	}
}
