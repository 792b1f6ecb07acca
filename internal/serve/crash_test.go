package serve

import (
	"encoding/json"
	"errors"
	"net/http/httptest"
	"testing"
	"time"

	"lintime/internal/classify"
	"lintime/internal/harness"
	"lintime/internal/obs"
	"lintime/internal/quorum"
	"lintime/internal/rtnet"
	"lintime/internal/simtime"
	"lintime/internal/spec"
)

// quorumConfig is testConfig on the ABD quorum backend: TypeName is left
// empty to exercise the register default.
func quorumConfig(n int) Config {
	cfg := testConfig(n)
	cfg.Backend = harness.AlgQuorum
	cfg.TypeName = ""
	return cfg
}

func startQuorumServer(t *testing.T, n int) *Server {
	t.Helper()
	s, err := New(quorumConfig(n))
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	t.Cleanup(func() { s.Drain(30 * time.Second) })
	return s
}

// TestServerQuorumBackend pins the backend seam: the quorum server
// defaults to the register type, serves reads and writes, and judges
// every class against the flat 4d bound instead of Algorithm 1's
// per-class formulas.
func TestServerQuorumBackend(t *testing.T) {
	s := startQuorumServer(t, 3)
	if got := s.Type().Name(); got != "register" {
		t.Fatalf("quorum backend serves type %q, want register", got)
	}
	if r, err := s.Call(quorum.OpWrite, 5); err != nil || r.Ret != nil {
		t.Errorf("write = (%v, %v)", r.Ret, err)
	}
	if r, err := s.Call(quorum.OpRead, nil); err != nil || !spec.ValuesEqual(r.Ret, 5) {
		t.Errorf("read = (%v, %v), want 5", r.Ret, err)
	}
	want := 4 * s.Config().Params.D
	for _, class := range []classify.Class{classify.PureAccessor, classify.PureMutator, classify.Mixed} {
		if got := s.Formula(class); got != want {
			t.Errorf("Formula(%v) = %v, want %v (class-independent 4d)", class, got, want)
		}
	}
	// Rejecting a non-register type is the config error, not a panic.
	cfg := quorumConfig(2)
	cfg.TypeName = "queue"
	if _, err := New(cfg); err == nil {
		t.Error("quorum backend with a queue type should error")
	}
	cfg = quorumConfig(2)
	cfg.Backend = "bogus"
	if _, err := New(cfg); err == nil {
		t.Error("unknown backend should error")
	}
}

// TestServerQuorumCrashMinority is the serving-layer crash story: crash
// a minority mid-run and the router drops the dead replica from rotation
// while the survivors keep completing operations against the remaining
// majority — including reads of data written before the crash.
func TestServerQuorumCrashMinority(t *testing.T) {
	s := startQuorumServer(t, 3)
	if _, err := s.Call(quorum.OpWrite, 5); err != nil {
		t.Fatal(err)
	}
	s.Crash(1)
	if !s.Crashed(1) {
		t.Fatal("Crashed(1) = false after Crash")
	}
	s.Crash(1) // idempotent
	// Every post-crash call routes around the dead replica: its worker
	// has left the pool, so only the survivors take calls.
	for i := 0; i < 4; i++ {
		if r, err := s.Call(quorum.OpRead, nil); err != nil || !spec.ValuesEqual(r.Ret, 5) {
			t.Fatalf("post-crash read %d = (%v, %v), want 5", i, r.Ret, err)
		}
	}
	if _, err := s.Call(quorum.OpWrite, 9); err != nil {
		t.Fatal(err)
	}
	if r, err := s.Call(quorum.OpRead, nil); err != nil || !spec.ValuesEqual(r.Ret, 9) {
		t.Errorf("read after post-crash write = (%v, %v), want 9", r.Ret, err)
	}
	if err := s.Drain(30 * time.Second); err != nil {
		t.Fatalf("drain after crash: %v", err)
	}
}

// TestServerAllCrashed pins the no-quorum endpoint: once every replica
// is crashed the router has nowhere to send work and Call fails fast
// with ErrAllCrashed instead of queueing onto a dead cluster.
func TestServerAllCrashed(t *testing.T) {
	s := startQuorumServer(t, 2)
	s.Crash(0)
	s.Crash(1)
	if _, err := s.Call(quorum.OpRead, nil); !errors.Is(err, ErrAllCrashed) {
		t.Errorf("Call with all replicas crashed = %v, want ErrAllCrashed", err)
	}
	if err := s.Drain(30 * time.Second); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// TestRunLoadQuorumCrashMidRun is the acceptance scenario in miniature:
// a closed-loop load run on the quorum backend survives a minority crash
// injected mid-run — calls that raced the crash are retried and counted
// as Unavailable, everything else completes within the 4d SLO. (The full
// version is `lintime load -backend quorum -n 3 -duration 10s -crash 2@5s`.)
func TestRunLoadQuorumCrashMidRun(t *testing.T) {
	s := startQuorumServer(t, 3)
	timer := time.AfterFunc(300*time.Millisecond, func() { s.Crash(2) })
	defer timer.Stop()
	p := s.Config().Params
	sum, err := RunLoad(s, s.Type(), p, s.Config().Tick, LoadConfig{
		Clients:  4,
		Duration: time.Second,
		Seed:     11,
		Mix: []harness.OpPick{
			{Op: quorum.OpWrite, Weight: 1},
			{Op: quorum.OpRead, Weight: 1},
		},
		Formula: func(classify.Class) simtime.Duration { return QuorumFormulaTicks(p) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if !s.Crashed(2) {
		t.Fatal("crash timer did not fire within the run")
	}
	if sum.TotalOps == 0 {
		t.Fatal("no operations completed")
	}
	for name, rep := range sum.PerClass {
		if rep.FormulaTicks != int64(4*p.D) {
			t.Errorf("class %s judged against %d ticks, want 4d = %d", name, rep.FormulaTicks, 4*p.D)
		}
		if !rep.WithinBudget {
			t.Errorf("class %s p99 %d exceeds 4d + budget %d", name, rep.Latency.P99, rep.BudgetTicks)
		}
	}
	if err := s.Drain(30 * time.Second); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// TestServerCrashCountedOnceOnMetrics: a single-object server merges its
// registry with obs.Default, which holds the fault-plan crash counter
// under the same name. One Crash must read as exactly one more
// crashes_injected through ObsHandler — not hidden by obs.Default's
// value, and not counted twice.
func TestServerCrashCountedOnceOnMetrics(t *testing.T) {
	base := obs.TakeSnapshot(obs.Default).Counters["crashes_injected"]
	s := startQuorumServer(t, 3)
	s.Crash(2)
	srv := httptest.NewServer(s.ObsHandler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/metrics.json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if got := snap.Counters["crashes_injected"]; got != base+1 {
		t.Fatalf("crashes_injected = %d after one Crash, want %d", got, base+1)
	}
}

// TestServerQueuedCallsFailWhenAllCrashed pins the pool's endpoint: calls
// queued behind busy replicas when the last replica crashes are answered
// with ErrAllCrashed (or rtnet.ErrCrashed for the ones already running)
// rather than left waiting for a worker that will never come.
func TestServerQueuedCallsFailWhenAllCrashed(t *testing.T) {
	s := startQuorumServer(t, 2)
	const calls = 12
	errs := make(chan error, calls)
	for i := 0; i < calls; i++ {
		go func() {
			_, err := s.Call(quorum.OpRead, nil)
			errs <- err
		}()
	}
	time.Sleep(5 * time.Millisecond) // two calls running, the rest queued
	s.Crash(0)
	s.Crash(1)
	deadline := time.After(10 * time.Second)
	for i := 0; i < calls; i++ {
		select {
		case err := <-errs:
			if err != nil && !errors.Is(err, ErrAllCrashed) && !errors.Is(err, rtnet.ErrCrashed) {
				t.Errorf("call failed with %v, want ErrAllCrashed or rtnet.ErrCrashed", err)
			}
		case <-deadline:
			t.Fatalf("%d of %d calls still waiting after every replica crashed", calls-i, calls)
		}
	}
	if err := s.Drain(30 * time.Second); err != nil {
		t.Fatalf("drain: %v", err)
	}
}
