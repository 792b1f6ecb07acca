// Command perfbench is the repository's benchmark: it drives the serving
// path (serve → shard router → rtnet → Algorithm 1 → adt) and the
// checking path (adversary → sim → lincheck) through their public
// packages, checks every output for linearizability, and prints the
// end-to-end metrics (untraced run) or the per-layer metrics (traced
// run) as one JSON object on the last line of standard output.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload paced --seed 1 --seconds 10 --trace 0
//
// NOTES.md explains the workloads and what each metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// metric is one value the benchmark reports: its name and unit.
type metric struct {
	name, unit string
}

// endToEnd are the metrics an untraced run reports, on every workload.
// Latency is the mean of a call's wall-clock latency on the serving
// workloads; on check it is the mean CPU time of one fixed-budget
// campaign, because on a shared host its wall time measures the
// neighbours as much as the program. The mean, not the p50: in a closed
// loop it is the calls in flight over throughput, which repeats across
// runs where the p50 does not. The p99 and CPU per operation are
// per-layer metrics: on a shared host they follow the hypervisor and its
// other tenants too closely to be bounded (NOTES.md).
var endToEnd = []metric{
	{"setup_s", "s"},
	{"latency_mean_ms", "ms"},
}

// classNames are the paper's operation classes, in report order.
var classNames = []string{"aop", "mop", "oop"}

// termNames are the obs attribution terms, in obs.Term order.
var termNames = []string{"x_wait", "net_delay", "batch_residency", "queue", "exec", "skew_adjust"}

// perLayer are the metrics a traced run reports, on every workload; a
// layer the workload does not reach reads 0.
var perLayer = buildPerLayer()

func buildPerLayer() []metric {
	ms := []metric{
		{"adt.apply_ns_per_op", "ns"},
		{"adt.allocs_per_apply", "count"},
	}
	for _, c := range classNames {
		ms = append(ms,
			metric{"core." + c + "_over_formula_p50_ticks", "ticks"},
			metric{"core." + c + "_over_formula_p99_ticks", "ticks"})
	}
	for _, c := range classNames {
		for _, t := range termNames {
			ms = append(ms, metric{"core." + c + "." + t + "_mean_ticks", "ticks"})
		}
	}
	return append(ms,
		metric{"rtnet.late_share", "share"},
		metric{"rtnet.msg_delay_p50_ticks", "ticks"},
		metric{"rtnet.msg_delay_p99_ticks", "ticks"},
		metric{"rtnet.msgs_per_op", "count"},
		metric{"rtnet.timer_fires_per_op", "count"},
		metric{"rtnet.batch_size_mean", "count"},
		metric{"rtnet.inbox_depth_max", "count"},
		metric{"serve.slot_wait_p50_ms", "ms"},
		metric{"serve.slot_wait_p99_ms", "ms"},
		metric{"serve.ceiling_fraction", "share"},
		metric{"serve.wire_bytes_per_op", "bytes"},
		metric{"serve.wire_write_us_per_op", "us"},
		metric{"lincheck.us_per_schedule", "us"},
		metric{"lincheck.explored_per_schedule", "count"},
		metric{"sim.run_us_per_schedule", "us"},
		metric{"sim.msgs_per_schedule", "count"},
		metric{"adversary.signatures", "count"},
		metric{"lincheck.check_s", "s"},
		metric{"runtime.cpu_s_per_kop", "s"},
		metric{"runtime.allocs_per_op", "count"},
		metric{"runtime.gc_cpu_fraction", "share"},
		metric{"runtime.peak_rss_mb", "MB"},
		metric{"loadgen.lag_p99_ms", "ms"},
		metric{"trace.overhead_share", "share"},
		metric{"host.timer_late_p50_us", "us"},
		metric{"host.timer_late_p99_us", "us"},
		metric{"host.steal_share", "share"},
		metric{"latency_p99_ms", "ms"},
		metric{"failed_share", "share"},
	)
}

// result is what one workload run measured. attempted counts the units
// of work issued (client calls, or fuzz schedules); failed counts call
// errors, operations on objects whose history is not linearizable, and
// schedules with a violation.
type result struct {
	attempted, failed int64
	values            map[string]float64
}

// options are the command-line settings a workload runs with.
type options struct {
	seed    int64
	seconds float64
	trace   bool
}

var workloads = map[string]func(options) (*result, error){
	"paced":     runPaced,
	"saturated": runSaturated,
	"check":     runCheck,
}

func main() {
	if typeName := os.Getenv(checkChildEnv); typeName != "" {
		os.Exit(checkChild(typeName))
	}
	workload := flag.String("workload", "", "workload to run: paced, saturated or check")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 10, "length of the measured window in seconds")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run; 0 end-to-end metrics")
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload paced|saturated|check, --seconds > 0 and --trace 0|1\n")
		os.Exit(2)
	}
	host := stampHost()
	fmt.Println(host)
	stealBefore := readHostCPU()
	res, err := run(options{seed: *seed, seconds: *seconds, trace: *trace == 1})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	steal := stealBefore.stealShareSince()
	fmt.Printf("host steal_share=%.4f\n", steal)
	res.values["host.timer_late_p50_us"] = host.timerLateP50us
	res.values["host.timer_late_p99_us"] = host.timerLateP99us
	res.values["host.steal_share"] = steal
	res.values["failed_share"] = float64(res.failed) / float64(res.attempted)
	want := endToEnd
	if *trace == 1 {
		want = perLayer
	}
	line, err := encodeResult(res, want)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(line)
}

// encodeResult renders the result line: the wanted metrics, each with
// its unit. A wanted metric the run did not produce is a harness bug.
func encodeResult(res *result, want []metric) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(want))
	for _, m := range want {
		v, ok := res.values[m.name]
		if !ok {
			return "", fmt.Errorf("metric %s was not measured", m.name)
		}
		metrics[m.name] = value{v, m.unit}
	}
	if res.attempted < 1 {
		return "", fmt.Errorf("no work was attempted")
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, metrics})
	return string(b), err
}

// hostStamp identifies where a result was measured, including how late
// this host's timers fire: results from hosts with different timer
// resolution are not comparable.
type hostStamp struct {
	goos, goarch, cpu, goVersion   string
	nproc, gomaxprocs              int
	timerLateP50us, timerLateP99us float64
}

func stampHost() hostStamp {
	p50, p99 := timerLateness(200, 10*time.Microsecond)
	return hostStamp{
		goos: runtime.GOOS, goarch: runtime.GOARCH, cpu: cpuModel(),
		goVersion: runtime.Version(), nproc: runtime.NumCPU(), gomaxprocs: runtime.GOMAXPROCS(0),
		timerLateP50us: p50, timerLateP99us: p99,
	}
}

func (h hostStamp) String() string {
	return fmt.Sprintf("host goos=%s goarch=%s cpu=%q nproc=%d gomaxprocs=%d go=%s timer_late_p50_us=%.1f timer_late_p99_us=%.1f",
		h.goos, h.goarch, h.cpu, h.nproc, h.gomaxprocs, h.goVersion, h.timerLateP50us, h.timerLateP99us)
}
