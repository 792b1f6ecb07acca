package main

import (
	"encoding/json"
	"errors"
	"flag"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"lintime/internal/serve"
	"lintime/internal/simtime"
)

// TestParseMixValidation pins the mix parser's error surface: duplicates
// and dead-weight entries are config typos, not mixes.
func TestParseMixValidation(t *testing.T) {
	good := []struct {
		in   string
		want int
	}{
		{"", 0},
		{"enqueue", 1},
		{"enqueue=3", 1},
		{"enqueue=2,dequeue=1,peek", 3},
		{" enqueue = 2 , dequeue ", 2},
		{"enqueue=2,,dequeue=1", 2}, // empty segments are skipped, not errors
	}
	for _, c := range good {
		mix, err := parseMix(c.in)
		if err != nil {
			t.Errorf("parseMix(%q) = %v, want ok", c.in, err)
		} else if len(mix) != c.want {
			t.Errorf("parseMix(%q) = %d entries, want %d", c.in, len(mix), c.want)
		}
	}
	bad := []struct {
		in      string
		errPart string
	}{
		{"enqueue=x", "want op=weight"},
		{"enqueue=", "want op=weight"},
		{"enqueue=0", "weight must be positive"},
		{"enqueue=-1", "weight must be positive"},
		{"enqueue=2,enqueue=1", "appears twice"},
		{"enqueue,enqueue", "appears twice"},
		{"enqueue=2,dequeue=1,enqueue", "appears twice"},
		{"=3", "empty operation name"},
	}
	for _, c := range bad {
		if _, err := parseMix(c.in); err == nil {
			t.Errorf("parseMix(%q) should error", c.in)
		} else if !strings.Contains(err.Error(), c.errPart) {
			t.Errorf("parseMix(%q) error %q, want it to mention %q", c.in, err, c.errPart)
		}
	}
}

func TestParseShardX(t *testing.T) {
	sx, err := parseShardX("5, 10,20", 3)
	if err != nil {
		t.Fatal(err)
	}
	want := []simtime.Duration{5, 10, 20}
	for i := range want {
		if sx[i] != want[i] {
			t.Errorf("shard %d X = %d, want %d", i, sx[i], want[i])
		}
	}
	if got, err := parseShardX("", 4); got != nil || err != nil {
		t.Errorf("empty -shard-x = (%v, %v), want (nil, nil)", got, err)
	}
	if _, err := parseShardX("5,10", 3); err == nil {
		t.Error("length mismatch should error")
	}
	if _, err := parseShardX("5,-1,2", 3); err == nil {
		t.Error("negative X should error")
	}
	if _, err := parseShardX("5,x,2", 3); err == nil {
		t.Error("non-numeric X should error")
	}
}

// TestGoldenServeDryRunSharded pins the sharded configuration echo: each
// shard's seed-derived offsets and per-shard formula table are
// deterministic functions of the flags.
func TestGoldenServeDryRunSharded(t *testing.T) {
	got := captureStdout(t, func() error {
		return cmdServe([]string{"-dry-run", "-n", "3", "-seed", "3", "-offsets", "spread",
			"-shards", "4", "-shard-x", "5,10,15,20"})
	})
	checkGolden(t, "serve-dry-run-sharded", got)

	// Sanity over the same document: four shards, X as configured.
	var echo struct {
		Shards   int `json:"shards"`
		PerShard []struct {
			X int64 `json:"x"`
		} `json:"per_shard"`
	}
	if err := json.Unmarshal([]byte(got), &echo); err != nil {
		t.Fatal(err)
	}
	if echo.Shards != 4 || len(echo.PerShard) != 4 {
		t.Fatalf("echo has %d/%d shards, want 4", echo.Shards, len(echo.PerShard))
	}
	for i, want := range []int64{5, 10, 15, 20} {
		if echo.PerShard[i].X != want {
			t.Errorf("shard %d X = %d, want %d", i, echo.PerShard[i].X, want)
		}
	}
}

// TestCmdLoadShardedInproc drives a small sharded in-process run through
// the CLI path end to end, with the per-object check on.
func TestCmdLoadShardedInproc(t *testing.T) {
	got := captureStdout(t, func() error {
		return cmdLoad([]string{"-shards", "2", "-keys", "8", "-zipf", "1.5",
			"-clients", "2", "-ops", "4", "-seed", "11", "-check-objects", "-require-slo",
			"-mix", "enqueue=2,dequeue=1,peek=1"})
	})
	var sum serve.Summary
	if err := json.Unmarshal([]byte(got), &sum); err != nil {
		t.Fatal(err)
	}
	if sum.Config.Shards != 2 || sum.Config.KeyCount != 8 || sum.Config.Zipf != 1.5 {
		t.Errorf("config echo = %+v", sum.Config)
	}
	if len(sum.PerShard) != 2 {
		t.Fatalf("per-shard reports = %d, want 2", len(sum.PerShard))
	}
	if sum.TotalOps != 2*4 {
		t.Errorf("total ops = %d, want 8", sum.TotalOps)
	}
	if !sum.SLOMet() {
		t.Error("SLO not met")
	}
}

// TestCmdLoadShardedErrors exercises the sharded flag validation.
func TestCmdLoadShardedErrors(t *testing.T) {
	if err := cmdLoad([]string{"-shards", "2", "-ops", "1"}); err == nil {
		t.Error("sharded load without -keys should error")
	}
	if err := cmdLoad([]string{"-shards", "0", "-ops", "1"}); err == nil {
		t.Error("-shards 0 should error")
	}
	if err := cmdLoad([]string{"-shards", "2", "-keys", "4", "-zipf", "0.5", "-ops", "1"}); err == nil {
		t.Error("-zipf ≤ 1 should error")
	}
	if err := cmdLoad([]string{"-shards", "2", "-keys", "4", "-shard-x", "5", "-ops", "1"}); err == nil {
		t.Error("-shard-x length mismatch should error")
	}
	if err := cmdLoad([]string{"-sim", "-keys", "4", "-ops", "1"}); err == nil {
		t.Error("-sim with -keys should error")
	}
}

// requireNonEmpty fails the test unless path names a non-empty file.
func requireNonEmpty(t *testing.T, path string) {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() == 0 {
		t.Errorf("%s is empty", filepath.Base(path))
	}
}

// TestCmdLoadProfiles checks that -cpuprofile and -memprofile on load
// write both profiles.
func TestCmdLoadProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	captureStdout(t, func() error {
		return cmdLoad([]string{"-sim", "-ops", "2", "-seed", "3", "-cpuprofile", cpu, "-memprofile", mem})
	})
	requireNonEmpty(t, cpu)
	requireNonEmpty(t, mem)
}

// TestRunServerProfiles checks that the serve loop writes both profiles
// on its shutdown path, here taken because the listener fails.
func TestRunServerProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	startProfile := profileFlags(fs)
	if err := fs.Parse([]string{"-cpuprofile", cpu, "-memprofile", mem}); err != nil {
		t.Fatal(err)
	}
	listenErr := errors.New("listener failed")
	captureStdout(t, func() error {
		err := runServer(serverRun{
			serve:        func(net.Listener) error { return listenErr },
			drain:        func(time.Duration) error { return nil },
			start:        func() {},
			stats:        func() any { return struct{}{} },
			banner:       "lintime serve: profile test",
			addr:         "127.0.0.1:0",
			startMetrics: func(http.Handler) (func(), error) { return func() {}, nil },
			startProfile: startProfile,
		})
		if !errors.Is(err, listenErr) {
			t.Errorf("runServer error = %v, want %v", err, listenErr)
		}
		return nil
	})
	requireNonEmpty(t, cpu)
	requireNonEmpty(t, mem)
}
