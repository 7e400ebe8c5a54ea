package main

import "sort"

// metricDef names one printed metric and its unit. The two tables below are
// the benchmark's contract: BENCHMARK.json lists the same names and units,
// and the smoke test checks that every run prints all of them.
type metricDef struct {
	name, unit string
}

// endToEnd are printed by untraced runs (--trace 0): host-time numbers a
// user of the simulator sees.
var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"minst_per_s", "Minst/s"},
	{"op_ms_p50", "ms"},
	{"op_ms_tail", "ms"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"alloc_mb", "MB"},
}

// perLayer are printed by traced runs (--trace 1). A layer the workload
// never reaches is measured by the traced run's probe (probeUnreached), so
// every value is a measurement; NOTES.md says which layer each workload
// drives.
var perLayer = []metricDef{
	{"workloads.load_s", "s"},
	{"emu.new_ms", "ms"},
	{"emu.batch_minst_per_s", "Minst/s"},
	{"emu.ff_minst_per_s", "Minst/s"},
	{"analysis.minst_per_s", "Minst/s"},
	{"analysis.self_s", "s"},
	{"pipeline.new_calls", "count"},
	{"pipeline.new_ms", "ms"},
	{"pipeline.new_s", "s"},
	{"pipeline.run_s", "s"},
	{"pipeline.ns_per_cycle", "ns"},
	{"pipeline.ns_per_inst", "ns"},
	{"pipeline.cycles", "count"},
	{"pipeline.committed", "count"},
	{"pipeline.fetched", "count"},
	{"pipeline.useful_ratio", "ratio"},
	{"pipeline.squashed", "count"},
	{"pipeline.stall_rob", "count"},
	{"pipeline.stall_iq", "count"},
	{"pipeline.stall_lsq", "count"},
	{"rename.allocations", "count"},
	{"rename.reuses", "count"},
	{"rename.reuse_ratio", "ratio"},
	{"rename.repairs", "count"},
	{"rename.stall_noreg", "count"},
	{"memsys.l1d_misses", "count"},
	{"memsys.l2_misses", "count"},
	{"bpred.mpki", "1/kinst"},
	{"ckpt.intervals", "count"},
	{"ckpt.detail_s", "s"},
	{"ckpt.self_s", "s"},
	{"sweep.job_ms_p50", "ms"},
	{"sweep.idle_worker_s", "s"},
	{"sweep.cache_put_ms", "ms"},
	{"sweep.cache_get_ms", "ms"},
	{"sweep.manifest_append_ms", "ms"},
	{"sweep.cache_hit_ratio", "ratio"},
	{"sweepd.submit_ms", "ms"},
	{"sweepd.wait_ms", "ms"},
	{"sweepd.results_ms", "ms"},
	{"sweepd.results_bytes", "bytes"},
	{"sweepd.polls", "count"},
	{"sweepd.job_ms_p50", "ms"},
	{"trace.overhead_s", "s"},
	{"trace.spans", "count"},
}

// median returns the median of xs (0 for none); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest order statistic with at least ten samples above
// it, and the percentile that statistic sits at. With ten samples or fewer
// there is no such statistic; the maximum is returned at percentile 100.
func tail(xs []float64) (value, pct float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n <= 10 {
		return s[n-1], 100
	}
	return s[n-11], 100 * float64(n-10) / float64(n)
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
