package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"lintime/internal/adt"
	"lintime/internal/lincheck"
	"lintime/internal/serve"
	"lintime/internal/simtime"
	"lintime/internal/spec"
)

const (
	// firstPrefix is the history length the per-object check starts from.
	firstPrefix = 64
	// objectCheckTimeout bounds the per-object check of one deployment.
	// Objects without a verdict by then count as failed: their calls were
	// not shown to be correct.
	objectCheckTimeout = 10 * time.Second
	// checkChildEnv, set to a type name, turns the program into the
	// per-object checker: histories in on stdin, verdicts out on stdout.
	checkChildEnv = "PERFBENCH_CHECK_TYPE"
)

// checkObjects reaches ShardSet.CheckPerObject's verdicts at a bounded
// cost. An object fails when any of its calls was recorded off its home
// shard, when its history is not linearizable against the base type, or
// when no verdict arrived within objectCheckTimeout; unverified reports
// how many failed the last way.
//
// CheckPerObject searches each object's whole history at once. On a
// history that is not linearizable the search can run for a minute and
// hold close to a gigabyte (a 10 s saturated run), so this check grows
// the history instead (see linearizes), and runs in a child process that
// is killed when the time is up.
func checkObjects(ss *serve.ShardSet) (bad map[string]bool, unverified int, err error) {
	bad = map[string]bool{}
	perKey := map[string][]lincheck.Op{}
	for shard := 0; shard < ss.Shards(); shard++ {
		for _, rec := range ss.ShardTrace(shard).Ops {
			key, arg, ok := adt.SplitKeyArg(rec.Arg)
			if !ok {
				return nil, 0, fmt.Errorf("shard %d recorded an unkeyed %s", shard, rec.Op)
			}
			if ss.ShardFor(key) != shard {
				bad[key] = true
				continue
			}
			perKey[key] = append(perKey[key], lincheck.Op{
				ID: len(perKey[key]), Proc: int(rec.Proc), Name: rec.Op, Arg: arg, Ret: rec.Ret,
				Invoke: rec.InvokeTime, Respond: rec.RespondTime,
			})
		}
	}
	for key := range bad {
		delete(perKey, key)
	}
	verdicts, err := checkInChild(ss.Type().Name(), perKey)
	if err != nil {
		return nil, 0, err
	}
	for key := range perKey {
		linearizable, ok := verdicts[key]
		if !ok {
			unverified++
		}
		if !linearizable {
			bad[key] = true
		}
	}
	return bad, unverified, nil
}

// checkInChild runs this program as the per-object checker on the
// histories and returns the verdicts it reached before the timeout.
func checkInChild(typeName string, histories map[string][]lincheck.Op) (map[string]bool, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var in bytes.Buffer
	if err := gob.NewEncoder(&in).Encode(histories); err != nil {
		return nil, fmt.Errorf("encoding histories: %w", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), objectCheckTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe)
	cmd.Env = append(os.Environ(), checkChildEnv+"="+typeName)
	cmd.Stdin = &in
	var out, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &stderr
	if err := cmd.Run(); err != nil && ctx.Err() == nil {
		return nil, fmt.Errorf("per-object check: %v: %s", err, strings.TrimSpace(stderr.String()))
	}
	verdicts := map[string]bool{}
	sc := bufio.NewScanner(&out)
	for sc.Scan() {
		key, verdict, ok := strings.Cut(sc.Text(), "\t")
		if !ok {
			return nil, fmt.Errorf("per-object check: bad verdict line %q", sc.Text())
		}
		verdicts[key] = verdict == "ok"
	}
	return verdicts, nil
}

// runCheckChild is the child side of checkInChild: it reads the
// histories, checks the objects on GOMAXPROCS workers and writes one
// "key<TAB>ok|bad" line per object as soon as it is decided.
func runCheckChild(typeName string, in io.Reader, out io.Writer) error {
	dt, err := adt.Lookup(typeName)
	if err != nil {
		return err
	}
	var histories map[string][]lincheck.Op
	if err := gob.NewDecoder(in).Decode(&histories); err != nil {
		return fmt.Errorf("decoding histories: %w", err)
	}
	keys := make(chan string, len(histories)) // holds every key: sends never block
	for k := range histories {
		keys <- k
	}
	close(keys)
	var mu sync.Mutex
	var writeErr error
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range keys {
				verdict := "bad"
				if linearizes(dt, histories[k]) {
					verdict = "ok"
				}
				mu.Lock()
				if _, err := fmt.Fprintf(out, "%s\t%s\n", k, verdict); err != nil && writeErr == nil {
					writeErr = err
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return writeErr
}

// checkChild runs the per-object checker and returns the exit code.
func checkChild(typeName string) int {
	if err := runCheckChild(typeName, os.Stdin, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// linearizes checks one object's history by growing it: the prefixes cut
// at the 64th, 128th, 256th, … invocation, then the whole history. A
// prefix keeps every operation invoked before the cut and marks those
// that responded after it pending. Linearizability is prefix-closed, so
// a failing prefix proves the whole history fails, usually far sooner
// than a search of the whole history would; an object passes only when
// its whole history does.
func linearizes(dt spec.DataType, ops []lincheck.Op) bool {
	sort.Slice(ops, func(i, j int) bool { return ops[i].Invoke < ops[j].Invoke })
	for n := firstPrefix; n < len(ops); n *= 2 {
		cut := ops[n].Invoke
		prefix := make([]lincheck.Op, 0, n)
		for _, op := range ops[:n] {
			if op.Invoke >= cut {
				break
			}
			if op.Respond >= cut {
				op.Respond = simtime.Infinity
			}
			prefix = append(prefix, op)
		}
		if !lincheck.Check(dt, prefix).Linearizable {
			return false
		}
	}
	return lincheck.Check(dt, ops).Linearizable
}
