package main

import (
	"strings"
	"time"

	"lintime/internal/obs"
	"lintime/internal/sim"
	"lintime/internal/spec"
)

// checkOnlyLayers are the per-layer metrics only the check workload
// reaches; serving workloads report them as 0.
var checkOnlyLayers = []string{
	"lincheck.us_per_schedule", "lincheck.explored_per_schedule",
	"sim.run_us_per_schedule", "sim.msgs_per_schedule", "adversary.signatures",
}

// servingOnlyLayers are the per-layer metrics only the serving workloads
// reach; the check workload reports them as 0.
var servingOnlyLayers = func() []string {
	names := []string{
		"rtnet.late_share", "rtnet.msg_delay_p50_ticks", "rtnet.msg_delay_p99_ticks",
		"rtnet.msgs_per_op", "rtnet.timer_fires_per_op", "rtnet.batch_size_mean", "rtnet.inbox_depth_max",
		"serve.slot_wait_p50_ms", "serve.slot_wait_p99_ms", "serve.ceiling_fraction",
		"serve.wire_bytes_per_op", "serve.wire_write_us_per_op",
		"lincheck.check_s", "loadgen.lag_p99_ms",
	}
	for _, c := range classNames {
		for _, t := range termNames {
			names = append(names, "core."+c+"."+t+"_mean_ticks")
		}
	}
	return names
}()

// replayApply times the spec layer alone: each history is applied in
// recorded order to a fresh initial state of its type, three times; the
// fastest pass gives ns per Apply and its allocations per Apply.
func replayApply(v map[string]float64, types []spec.DataType, histories [][]sim.OpRecord) {
	ops := 0
	for _, h := range histories {
		ops += len(h)
	}
	if ops == 0 {
		v["adt.apply_ns_per_op"], v["adt.allocs_per_apply"] = 0, 0
		return
	}
	best := time.Duration(-1)
	var allocs uint64
	for pass := 0; pass < 3; pass++ {
		before := readUsage()
		t := time.Now()
		for i, h := range histories {
			state := types[i].Initial()
			for _, op := range h {
				_, state = state.Apply(op.Op, op.Arg)
			}
		}
		spent := time.Since(t)
		after := readUsage()
		if best < 0 || spent < best {
			best, allocs = spent, after.allocs-before.allocs
		}
	}
	v["adt.apply_ns_per_op"] = float64(best.Nanoseconds()) / float64(ops)
	v["adt.allocs_per_apply"] = float64(allocs) / float64(ops)
}

// overFormula fills core.<class>_over_formula_{p50,p99}_ticks from
// per-class replica latencies.
func overFormula(v map[string]float64, ticks [3][]float64, f [3]int64) {
	for i, c := range classNames {
		over := make([]float64, len(ticks[i]))
		for j, t := range ticks[i] {
			over[j] = t - float64(f[i])
		}
		v["core."+c+"_over_formula_p50_ticks"] = quantile(over, 0.50)
		v["core."+c+"_over_formula_p99_ticks"] = quantile(over, 0.99)
	}
}

// layerServing derives the serving workloads' per-layer metrics from a
// traced run.
func layerServing(v map[string]float64, load servingLoad, st *runStats) {
	var types []spec.DataType
	var histories [][]sim.OpRecord
	var ticks [3][]float64
	var slotWait, lags []float64
	shardOps := 0
	tickNs := float64(load.tick.Nanoseconds())
	for i := 0; i < st.ss.Shards(); i++ {
		tr := st.ss.ShardTrace(i)
		types = append(types, st.ss.Shard(i).Type())
		histories = append(histories, tr.Ops)
		shardOps += len(tr.Ops)
	}
	regs := st.ss.Registries()
	for _, r := range st.recs {
		if r.failed {
			continue
		}
		ticks[r.class] = append(ticks[r.class], float64(r.ticks))
		slotWait = append(slotWait, (float64(r.clientNs)-float64(r.ticks)*tickNs)/1e6)
		lags = append(lags, float64(r.lagNs)/1e6)
	}
	var wireBytes int64
	var wireWrite time.Duration
	if st.ln != nil {
		wireBytes, wireWrite = st.ln.bytes, st.ln.write
	}
	replayApply(v, types, histories)
	overFormula(v, ticks, formulaTicksFor(servingParams))
	termMeans(v, regs)
	rtnetLayer(v, regs, shardOps)

	v["serve.slot_wait_p50_ms"] = quantile(slotWait, 0.50)
	v["serve.slot_wait_p99_ms"] = quantile(slotWait, 0.99)
	v["serve.ceiling_fraction"] = float64(st.ok) / st.elapsed.Seconds() / slotCeiling(load, st.ss.Shard(0).Classes())
	v["serve.wire_bytes_per_op"], v["serve.wire_write_us_per_op"] = 0, 0
	if st.ok > 0 {
		v["serve.wire_bytes_per_op"] = float64(wireBytes) / float64(st.ok)
		v["serve.wire_write_us_per_op"] = float64(wireWrite.Microseconds()) / float64(st.ok)
	}
	v["lincheck.check_s"] = st.checkS
	v["loadgen.lag_p99_ms"] = 0
	if load.rate > 0 {
		v["loadgen.lag_p99_ms"] = quantile(lags, 0.99)
	}
}

// termMeans fills core.<class>.<term>_mean_ticks from the attribution
// histograms the shard servers keep when a collector is installed
// (trace_term_ticks{class,term,shard}). The signed skew_adjust term is
// clamped at 0 by those histograms.
func termMeans(v map[string]float64, regs []*obs.Registry) {
	type acc struct{ sum, count int64 }
	sums := map[string]*acc{}
	for _, reg := range regs {
		for name, h := range reg.Snapshot().Hists {
			if base, _ := obs.SplitName(name); base != "trace_term_ticks" {
				continue
			}
			key := obs.Label(name, "class") + "/" + obs.Label(name, "term")
			a := sums[key]
			if a == nil {
				a = &acc{}
				sums[key] = a
			}
			a.sum += h.Sum
			a.count += h.Count
		}
	}
	for _, c := range classNames {
		for _, t := range termNames {
			m := 0.0
			if a := sums[strings.ToUpper(c)+"/"+t]; a != nil && a.count > 0 {
				m = float64(a.sum) / float64(a.count)
			}
			v["core."+c+"."+t+"_mean_ticks"] = m
		}
	}
}

// rtnetLayer fills the rtnet.* metrics from the shard registries:
// deliveries, timer fires, the message-delay histograms (merged across
// shards exactly), batch sizes and the inbox high-water mark.
func rtnetLayer(v map[string]float64, regs []*obs.Registry, shardOps int) {
	var delivered, fires, batchSum, batchCount, inboxMax int64
	var delays []int64 // delays[t] = deliveries that took t ticks; last = overflow
	var delayMax int64
	for _, reg := range regs {
		snap := reg.Snapshot()
		for name, c := range snap.Counters {
			switch base, _ := obs.SplitName(name); base {
			case "rtnet_messages_delivered_total":
				delivered += c
			case "rtnet_timer_fires_total":
				fires += c
			}
		}
		for name, g := range snap.Gauges {
			if base, _ := obs.SplitName(name); base == "rtnet_inbox_depth_max" && g > inboxMax {
				inboxMax = g
			}
		}
		for name, h := range snap.Hists {
			switch base, _ := obs.SplitName(name); base {
			case "serve_batch_size":
				batchSum += h.Sum
				batchCount += h.Count
			case "rtnet_message_latency_ticks":
				counts := bucketCounts(reg.Hist(name, 0))
				if len(delays) < len(counts) {
					delays = append(delays, make([]int64, len(counts)-len(delays))...)
				}
				for i, n := range counts {
					delays[i] += n
				}
				if h.Max > delayMax {
					delayMax = h.Max
				}
			}
		}
	}
	ops := float64(shardOps)
	if ops < 1 {
		ops = 1
	}
	v["rtnet.msgs_per_op"] = float64(delivered) / ops
	v["rtnet.timer_fires_per_op"] = float64(fires) / ops
	v["rtnet.batch_size_mean"] = 0
	if batchCount > 0 {
		v["rtnet.batch_size_mean"] = float64(batchSum) / float64(batchCount)
	}
	v["rtnet.inbox_depth_max"] = float64(inboxMax)
	var total, late int64
	for t, n := range delays {
		total += n
		if int64(t) > int64(servingParams.D) {
			late += n
		}
	}
	v["rtnet.late_share"], v["rtnet.msg_delay_p50_ticks"], v["rtnet.msg_delay_p99_ticks"] = 0, 0, 0
	if total > 0 {
		v["rtnet.late_share"] = float64(late) / float64(total)
		v["rtnet.msg_delay_p50_ticks"] = float64(countQuantile(delays, total, 0.50, delayMax))
		v["rtnet.msg_delay_p99_ticks"] = float64(countQuantile(delays, total, 0.99, delayMax))
	}
}

// bucketCounts recovers an obs.Hist's per-value counts (index limit holds
// the overflow) from its nearest-rank quantiles: the number of samples
// ≤ t is the largest rank whose quantile is ≤ t.
func bucketCounts(h *obs.Hist) []int64 {
	total := h.Count()
	limit := h.Limit()
	le := func(t int64) int64 {
		lo, hi := int64(0), total // le(t) is in [lo, hi]
		for lo < hi {
			mid := (lo + hi + 1) / 2
			if h.Quantile((float64(mid)-0.5)/float64(total)) <= t {
				lo = mid
			} else {
				hi = mid - 1
			}
		}
		return lo
	}
	counts := make([]int64, limit+1)
	prev := int64(0)
	for t := 0; t < limit; t++ {
		cum := le(int64(t))
		counts[t] = cum - prev
		prev = cum
	}
	counts[limit] = total - prev
	return counts
}

// countQuantile is the nearest-rank q-quantile of a per-value count
// table whose last entry is the overflow (reported as max).
func countQuantile(counts []int64, total int64, q float64, max int64) int64 {
	rank := int64(q*float64(total) + 0.999999)
	var cum int64
	for t, n := range counts {
		cum += n
		if cum >= rank {
			if t == len(counts)-1 {
				return max
			}
			return int64(t)
		}
	}
	return max
}
