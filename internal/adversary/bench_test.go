package adversary

import (
	"runtime"
	"testing"

	"lintime/internal/adt"
	"lintime/internal/harness"
	"lintime/internal/simtime"
)

// BenchmarkFuzzCampaign measures adversarial-schedule throughput: one
// 128-schedule campaign (two batches) against the corrected algorithm,
// sequentially, so ns/op divided by 128 is the per-schedule cost and
// schedules/sec is reported as a custom metric.
func BenchmarkFuzzCampaign(b *testing.B) {
	p := simtime.DefaultParams(3)
	dt, err := adt.Lookup("queue")
	if err != nil {
		b.Fatal(err)
	}
	const budget = 128
	var rep *Report
	for i := 0; i < b.N; i++ {
		rep, err = Fuzz(Options{Params: p, DT: dt, Seed: 1, Budget: budget, Parallel: 1})
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Violations) != 0 {
			b.Fatal("correct algorithm flagged")
		}
	}
	b.ReportMetric(float64(budget)*float64(b.N)/b.Elapsed().Seconds(), "schedules/sec")
}

// BenchmarkFuzzCampaignWorkers measures the campaign shape `lintime fuzz`
// users run: n=5 replicas of the core algorithm, one 128-schedule
// campaign spread over GOMAXPROCS workers. Any violation fails the run.
func BenchmarkFuzzCampaignWorkers(b *testing.B) {
	p := simtime.DefaultParams(5)
	dt, err := adt.Lookup("queue")
	if err != nil {
		b.Fatal(err)
	}
	const budget = 128
	opts := Options{
		Params: p, DT: dt, Target: Target{Algorithm: harness.AlgCore},
		Seed: 1, Budget: budget, Parallel: runtime.GOMAXPROCS(0),
	}
	for i := 0; i < b.N; i++ {
		rep, err := Fuzz(opts)
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Violations) != 0 {
			b.Fatalf("correct algorithm flagged: %s", rep.Violations[0].Kind)
		}
	}
	b.ReportMetric(float64(budget)*float64(b.N)/b.Elapsed().Seconds(), "schedules/sec")
}

// BenchmarkRunnerRun measures one schedule execution end to end (engine
// run + admissibility + linearizability check), the unit of work every
// strategy pays per candidate.
func BenchmarkRunnerRun(b *testing.B) {
	p := simtime.DefaultParams(3)
	dt, err := adt.Lookup("queue")
	if err != nil {
		b.Fatal(err)
	}
	r := &Runner{Params: p, DT: dt}
	cand := randomCandidate(p, opsFor(dt), 1, "bench", 0, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Run(cand.sched); err != nil {
			b.Fatal(err)
		}
	}
}
