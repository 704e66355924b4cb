package main

import (
	"syscall"
	"time"

	"repro/internal/experiment"
	"repro/internal/metrics/hist"
)

// endToEnd are the metrics a user of the program sees, reported by every
// workload for its own unit of work (see BENCHMARK.json). Times are the
// process's CPU time (user + system, every thread) rather than wall time:
// on a virtual machine whose CPUs the hypervisor lends to other guests,
// wall time swings by a quarter or more from run to run while CPU time
// does not. Wall latencies are printed with every run and reported as
// wall.op_p50_ms in traced runs.
//
//   - setup_s: CPU seconds of one set-up, median of several (inputs built
//     and one warm-up operation; on serve, the daemon booted and its hit
//     pool warmed);
//   - op_cpu_ms: CPU milliseconds per operation — the median over sweep
//     passes or six-cell scale passes, and on serve the window's CPU time
//     over its client sessions (a trace miss, a metrics miss and a hit,
//     daemon and client together);
//   - op_alloc_mb: heap megabytes allocated per operation, averaged over
//     the window (whole process: on serve this includes the daemon's own
//     allocations);
//   - ok_frac: operations (on serve, requests) that completed, passed
//     their check and met the latency limit, over those attempted.
var endToEnd = []string{"setup_s", "op_cpu_ms", "op_alloc_mb", "ok_frac"}

// Cells of the scale workload, in run order.
var scaleCells = []string{"uni_lf", "uni_lb", "multi_lf", "multi_lb", "global_lf", "global_lb"}

// cpuBuckets are the CPU-profile layers (see bucketOf).
var cpuBuckets = []string{"rua", "wheel", "engine", "obs", "render", "http", "experiment", "gc", "bench", "other"}

// sweepIDs are the sweep workload's experiment ids: every registered one
// except scale, in rtsim's sorted order.
func sweepIDs() []string {
	var ids []string
	for _, id := range experiment.Names() {
		if id != "scale" {
			ids = append(ids, id)
		}
	}
	return ids
}

// layerUnits lists every per-layer metric with its unit, in report order.
func layerUnits() [][2]string {
	var out [][2]string
	add := func(name, unit string) { out = append(out, [2]string{name, unit}) }
	for _, id := range sweepIDs() {
		add("experiment."+id+"_s", "s")
	}
	add("runner.cpu_util", "frac")
	add("rua.select_calls", "count")
	add("rua.charged_ops", "count")
	add("rua.busy_s", "s")
	add("rua.ns_per_call", "ns")
	add("rua.feas_fail_frac", "frac")
	for _, c := range scaleCells {
		p := "engine." + c + "."
		add(p+"events", "count")
		add(p+"self_s", "s")
		add(p+"ns_per_event", "ns")
		add(p+"ctx_switches", "count")
		add(p+"retries", "count")
		add(p+"lock_events", "count")
		add(p+"alloc_bytes_per_job", "B")
	}
	for _, b := range cpuBuckets {
		add(b+".cpu_share", "frac")
	}
	add("obs.events", "count")
	add("obs.ns_per_event", "ns")
	add("obs.finish_s", "s")
	add("render.perfetto_s", "s")
	add("render.perfetto_bytes", "B")
	add("report.build_s", "s")
	add("report.text_s", "s")
	add("serve.admit_ms", "ms")
	add("serve.queue_wait_ms", "ms")
	add("serve.exec_ms", "ms")
	add("serve.fetch_ms", "ms")
	add("serve.trace_p50_ms", "ms")
	add("serve.metrics_p50_ms", "ms")
	add("serve.hit_p50_ms", "ms")
	add("serve.cache_hits", "count")
	add("serve.cache_misses", "count")
	add("serve.refused", "count")
	add("serve.max_queue_depth", "count")
	add("serve.worker_busy_frac", "frac")
	add("wall.op_p50_ms", "ms")
	add("trace.overhead_frac", "frac")
	return out
}

func perLayerNames() []string {
	lu := layerUnits()
	names := make([]string, len(lu))
	for i, nu := range lu {
		names[i] = nu[0]
	}
	return names
}

var e2eUnits = map[string]string{"setup_s": "s", "op_cpu_ms": "ms", "op_alloc_mb": "MB", "ok_frac": "frac"}

func unitOf(name string) string {
	if u, ok := e2eUnits[name]; ok {
		return u
	}
	for _, nu := range layerUnits() {
		if nu[0] == name {
			return nu[1]
		}
	}
	return ""
}

// latencies collects durations on the repo's own histogram, so every
// percentile here is the same nearest-rank quantile the reports print.
type latencies struct{ h *hist.Hist }

func newLatencies() latencies { return latencies{h: hist.Exp2(1 << 40)} } // ns, ~18 min

func (l latencies) add(d time.Duration) { l.h.Add(int64(d)) }
func (l latencies) n() int64            { return l.h.N() }

// ms returns the q-quantile in milliseconds.
func (l latencies) ms(q float64) float64 { return float64(l.h.Quantile(q)) / 1e6 }

// medianDur is the nearest-rank median of ds.
func medianDur(ds []time.Duration) time.Duration {
	l := newLatencies()
	for _, d := range ds {
		l.add(d)
	}
	return time.Duration(l.h.Quantile(0.5))
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
