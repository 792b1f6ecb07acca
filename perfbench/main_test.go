package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// TestMain lets the test binary serve as the per-object checker child,
// as the benchmark binary does.
func TestMain(m *testing.M) {
	if typeName := os.Getenv(checkChildEnv); typeName != "" {
		os.Exit(checkChild(typeName))
	}
	os.Exit(m.Run())
}

// TestMisrouteFailsTheCheck proves the correctness gate can fail: a
// short paced run whose router sends one object to the wrong shard
// reports exactly that object's calls as failed, and the same run
// without the fault reports none.
func TestMisrouteFailsTheCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the paced deployment in real time")
	}
	clean, _, err := measure(pacedLoad, 1, 0.5, false)
	if err != nil {
		t.Fatal(err)
	}
	if n := clean.failures(); n != 0 || len(clean.recs) == 0 {
		t.Fatalf("clean run: %d of %d calls failed, want 0 of > 0", n, len(clean.recs))
	}

	const bad = 3 // obj-03
	load := pacedLoad
	load.misroute = func(key string, shard int) int {
		if key == objectKeys()[bad] {
			return (shard + 1) % numShards
		}
		return shard
	}
	st, _, err := measure(load, 1, 0.5, false)
	if err != nil {
		t.Fatal(err)
	}
	var onBad int64
	for _, r := range st.recs {
		if r.key == bad {
			onBad++
		}
	}
	if n := st.failures(); n == 0 || n != onBad {
		t.Fatalf("misrouted run: %d calls failed, want the %d calls on obj-03", n, onBad)
	}
	if len(st.badKeys) != 1 || !st.badKeys[bad] {
		t.Fatalf("misrouted run flagged objects %v, want only obj-03", st.badKeys)
	}
}

// TestManifestMatchesMetrics keeps BENCHMARK.json and the metrics this
// program prints in step: same workloads, names and units, in order.
func TestManifestMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var manifest struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &manifest); err != nil {
		t.Fatal(err)
	}
	if len(manifest.Workloads) != len(workloads) {
		t.Errorf("manifest lists %d workloads, program has %d", len(manifest.Workloads), len(workloads))
	}
	for _, w := range manifest.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("manifest workload %q is not implemented", w.Name)
		}
	}
	compare := func(kind string, got []struct{ Name, Unit string }, want []metric) {
		if len(got) != len(want) {
			t.Errorf("%s: manifest has %d metrics, program %d", kind, len(got), len(want))
			return
		}
		for i, m := range want {
			if got[i].Name != m.name || got[i].Unit != m.unit {
				t.Errorf("%s[%d]: manifest %s (%s), program %s (%s)", kind, i, got[i].Name, got[i].Unit, m.name, m.unit)
			}
		}
	}
	compare("end_to_end", manifest.EndToEnd, endToEnd)
	compare("per_layer", manifest.PerLayer, perLayer)
}

// TestObjectCheckAgreesWithCheckPerObject pins the bounded per-object
// check to the serving layer's own: on a short saturated run at a 10µs
// tick, where timers fire later than the model allows and most objects
// fail, and on a short paced run, where none do, both flag the same
// objects.
func TestObjectCheckAgreesWithCheckPerObject(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the serving deployments in real time")
	}
	overdriven := saturatedLoad
	overdriven.tick = 10 * time.Microsecond
	for _, load := range []servingLoad{overdriven, pacedLoad} {
		st, _, err := measure(load, 2, 0.3, false)
		if err != nil {
			t.Fatal(err)
		}
		want := map[int]bool{}
		rep := st.ss.CheckPerObject(2)
		for _, v := range rep.RoutingViolations {
			rep.NonLinearizable = append(rep.NonLinearizable, v.Key)
		}
		for _, k := range rep.NonLinearizable {
			for i, name := range objectKeys() {
				if name == k {
					want[i] = true
				}
			}
		}
		if len(want) != len(st.badKeys) {
			t.Errorf("%s: bounded check flagged %d objects, CheckPerObject %d", load.name, len(st.badKeys), len(want))
		}
		for k := range want {
			if !st.badKeys[k] {
				t.Errorf("%s: object %d failed CheckPerObject but passed the bounded check", load.name, k)
			}
		}
	}
}
