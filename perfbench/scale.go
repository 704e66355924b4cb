package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"repro/internal/experiment"
	"repro/internal/gsim"
	"repro/internal/metrics"
	"repro/internal/multi"
	"repro/internal/rtime"
	"repro/internal/rua"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/trace"
	"repro/internal/uam"
)

// Scale workload shape: the clustered n=10⁴ set at AL 0.4 with step
// TUFs, 4 CPUs for multi and global, and a horizon of scaleHorizonMult
// × the largest critical time (about 31k released jobs per cell).
const (
	scaleN           = 10_000
	scaleAL          = 0.4
	scaleCPUs        = 4
	scaleHorizonMult = 2
)

// counters are a cell's deterministic Result counters.
type counters struct {
	Released, Completed, Retries, SchedOps, CtxSwitches, LockEvents int64
	AUR, CMR                                                        string // %.3f
}

func (c counters) String() string {
	return fmt.Sprintf("released=%d completed=%d retries=%d schedops=%d ctx=%d lock=%d aur=%s cmr=%s",
		c.Released, c.Completed, c.Retries, c.SchedOps, c.CtxSwitches, c.LockEvents, c.AUR, c.CMR)
}

// scaleRef pins every cell's counters. They hold for every seed: the
// set's one-job-per-window arrival curves (l = a = 1) leave the engines'
// jittered arrival generator no freedom, so sim.Config.Seed changes no
// release time.
var scaleRef = map[string]counters{
	"uni_lf":    {33785, 33784, 97, 575740, 46021, 0, "1.000", "1.000"},
	"uni_lb":    {33785, 33783, 0, 3413470, 189162, 135137, "1.000", "1.000"},
	"multi_lf":  {33785, 33784, 23, 300539, 36769, 0, "1.000", "1.000"},
	"multi_lb":  {33785, 33783, 0, 1515081, 173793, 135138, "1.000", "1.000"},
	"global_lf": {33785, 33784, 0, 496650, 33792, 0, "1.000", "1.000"},
	"global_lb": {33785, 33783, 0, 2691163, 168960, 135138, "1.000", "1.000"},
}

func fromResult(r sim.Result, st metrics.RunStats) counters {
	return counters{
		Released: r.Arrivals, Completed: r.Completions, Retries: r.Retries,
		SchedOps: r.SchedOps, CtxSwitches: r.CtxSwitches, LockEvents: r.LockEvents,
		AUR: fmt.Sprintf("%.3f", st.AUR), CMR: fmt.Sprintf("%.3f", st.CMR),
	}
}

// probe is the traced run's instrumentation of one cell: the timing
// scheduler wrapper's totals and the timing observer's per-kind counts.
type probe struct {
	calls, ops int64
	ruaNs      int64 // wall time inside scheduler calls, observer time excluded
	obsNs      int64 // wall time inside the observer
	obsInRUA   int64 // observer time spent while a scheduler call was open
	inRUA      bool
	kinds      [trace.Shed + 1]int64
}

// observe is the traced cell's engine observer: it counts events by kind
// and times itself.
func (p *probe) observe(e trace.Event) {
	t0 := time.Now()
	if int(e.Kind) < len(p.kinds) {
		p.kinds[e.Kind]++
	}
	d := int64(time.Since(t0))
	p.obsNs += d
	if p.inRUA {
		p.obsInRUA += d
	}
}

// timedRUA wraps an RUA scheduler, timing and counting every call while
// forwarding it unchanged, so the wrapped run's Result is bit-identical
// to the unwrapped one.
type timedRUA struct {
	r *rua.RUA
	p *probe
}

func (w *timedRUA) enter() time.Time {
	w.p.inRUA = true
	w.p.calls++
	return time.Now()
}

func (w *timedRUA) leave(t0 time.Time, ops int64) {
	w.p.ruaNs += int64(time.Since(t0))
	w.p.inRUA = false
	w.p.ops += ops
}

// Name implements sched.Scheduler.
func (w *timedRUA) Name() string { return w.r.Name() }

// Select implements sched.Scheduler.
func (w *timedRUA) Select(wd sched.World) sched.Decision {
	t0 := w.enter()
	d := w.r.Select(wd)
	w.leave(t0, d.Ops)
	return d
}

// SelectTopK implements sched.TopK.
func (w *timedRUA) SelectTopK(wd sched.World, k int) ([]*task.Job, int64) {
	t0 := w.enter()
	jobs, ops := w.r.SelectTopK(wd, k)
	w.leave(t0, ops)
	return jobs, ops
}

// SelectTopKAbort implements sched.TopKAborter.
func (w *timedRUA) SelectTopKAbort(wd sched.World, k int) ([]*task.Job, []*task.Job, int64) {
	t0 := w.enter()
	ranked, abort, ops := w.r.SelectTopKAbort(wd, k)
	w.leave(t0, ops)
	return ranked, abort, ops
}

// SetObserver forwards the engine's observer to RUA.
func (w *timedRUA) SetObserver(obs func(trace.Event)) { w.r.SetObserver(obs) }

// cellRun is one cell's outcome.
type cellRun struct {
	c                   counters
	wall                time.Duration
	allocBytes, mallocs uint64
}

// runCell runs one scale cell on a fresh clone of tmpl. A non-nil probe
// wraps the scheduler and attaches the timing observer.
func runCell(cell string, tmpl []*task.Task, horizon rtime.Time, seed int64, pr *probe) (cellRun, error) {
	tasks := task.CloneAll(tmpl)
	lockFree := cell[len(cell)-2:] == "lf"
	mode := sim.LockBased
	if lockFree {
		mode = sim.LockFree
	}
	newSched := func() sched.TopK {
		newRUA := rua.NewLockBased
		if lockFree {
			newRUA = rua.NewLockFree
		}
		r := newRUA()
		if pr == nil {
			return r
		}
		return &timedRUA{r: r, p: pr}
	}
	var observer func(trace.Event)
	if pr != nil {
		observer = pr.observe
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0 := time.Now()
	var cr cellRun
	switch cell[:len(cell)-3] {
	case "uni":
		res, err := sim.Run(sim.Config{
			Tasks: tasks, Scheduler: newSched(), Mode: mode,
			R: experiment.DefaultR, S: experiment.DefaultS, OpCost: 0,
			Horizon: horizon, ArrivalKind: uam.KindJittered, Seed: seed,
			ConservativeRetry: true, Observer: observer,
		})
		if err != nil {
			return cr, err
		}
		cr.wall = time.Since(t0)
		cr.c = fromResult(res, metrics.Analyze(res))
	case "multi":
		mc := multi.Config{
			CPUs: scaleCPUs, Tasks: tasks, Mode: mode,
			R: experiment.DefaultR, S: experiment.DefaultS, OpCost: 0,
			Horizon: horizon, ArrivalKind: uam.KindJittered, Seed: seed,
			ConservativeRetry: true, Observer: observer,
		}
		if pr != nil {
			mc.NewScheduler = func() sched.Scheduler { return newSched() }
		}
		res, err := multi.Run(mc)
		if err != nil {
			return cr, err
		}
		cr.wall = time.Since(t0)
		var sum sim.Result
		for _, r := range res.PerCPU {
			sum.Arrivals += r.Arrivals
			sum.Completions += r.Completions
			sum.Retries += r.Retries
			sum.SchedOps += r.SchedOps
			sum.CtxSwitches += r.CtxSwitches
			sum.LockEvents += r.LockEvents
		}
		cr.c = fromResult(sum, res.Stats)
	case "global":
		res, err := gsim.Run(gsim.Config{
			CPUs: scaleCPUs, Tasks: tasks, Scheduler: newSched(), Mode: mode,
			R: experiment.DefaultR, S: experiment.DefaultS, OpCost: 0,
			Horizon: horizon, ArrivalKind: uam.KindJittered, Seed: seed,
			Observer: observer,
		})
		if err != nil {
			return cr, err
		}
		cr.wall = time.Since(t0)
		cr.c = fromResult(res, metrics.Analyze(res))
	default:
		return cr, fmt.Errorf("unknown scale cell %q", cell)
	}
	runtime.ReadMemStats(&ms1)
	cr.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	cr.mallocs = ms1.Mallocs - ms0.Mallocs
	return cr, nil
}

// scaleSetup builds the template and horizon.
func scaleSetup() ([]*task.Task, rtime.Time, error) {
	tmpl, err := experiment.ScaleWorkload(scaleN, scaleAL, experiment.StepTUFs)
	if err != nil {
		return nil, 0, err
	}
	var maxC rtime.Duration
	for _, t := range tmpl {
		if c := t.CriticalTime(); c > maxC {
			maxC = c
		}
	}
	return tmpl, rtime.Time(int64(maxC) * scaleHorizonMult), nil
}

// scaleOrder is the order a pass runs the cells in (indexes into
// scaleCells): a permutation drawn from the workload seed, which is the
// only thing the seed varies here.
func scaleOrder(seed int64) []int {
	return rand.New(rand.NewSource(seed)).Perm(len(scaleCells))
}

// scalePass runs the six cells in the given order, returning their runs
// (and probes, when traced) in scaleCells order.
func scalePass(tmpl []*task.Task, horizon rtime.Time, seed int64, order []int, traced bool) ([]cellRun, []*probe, error) {
	runs := make([]cellRun, len(scaleCells))
	probes := make([]*probe, len(scaleCells))
	for _, i := range order {
		cell := scaleCells[i]
		if traced {
			probes[i] = &probe{}
		}
		cr, err := runCell(cell, tmpl, horizon, seed, probes[i])
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", cell, err)
		}
		runs[i] = cr
	}
	return runs, probes, nil
}

// runScale measures six-cell passes over the n=10⁴ workload.
func runScale(cfg config) (*outcome, error) {
	out := newOutcome()
	var (
		setups []time.Duration
		tmpl   []*task.Task
		hz     rtime.Time
		want   []counters
	)
	for _, cell := range scaleCells {
		want = append(want, scaleRef[cell])
	}
	order := scaleOrder(cfg.seed)
	// Set-up: build the template and run one warm-up pass, repeated.
	for i := 0; i < setupRepeats; i++ {
		c0 := cpuTime()
		var err error
		if tmpl, hz, err = scaleSetup(); err != nil {
			return nil, err
		}
		runs, _, err := scalePass(tmpl, hz, cfg.seed, order, false)
		if err != nil {
			return nil, err
		}
		setups = append(setups, cpuTime()-c0)
		out.attempted++
		checkCells(cfg, out, "warm-up", runs, want)
	}

	type measured struct {
		passes  latencies
		cpu1    latencies // process CPU time per pass
		alloc   uint64
		jobs    int64
		runWall time.Duration
		cpu     time.Duration
		wall    time.Duration
		runs    [][]cellRun
		probes  [][]*probe
		shares  map[string]float64
	}
	measure := func(window time.Duration, traced bool) (*measured, error) {
		ph := &measured{passes: newLatencies(), cpu1: newLatencies()}
		var prof *cpuProfile
		if traced {
			var err error
			if prof, err = startCPUProfile(); err != nil {
				return nil, err
			}
		}
		cpu0, start := cpuTime(), time.Now()
		for time.Since(start) < window {
			c0 := cpuTime()
			runs, probes, err := scalePass(tmpl, hz, cfg.seed, order, traced)
			ph.cpu1.add(cpuTime() - c0)
			out.attempted++
			if err != nil {
				out.fail(cfg, "scale pass: %v", err)
				continue
			}
			var wall time.Duration
			var alloc uint64
			for _, r := range runs {
				wall += r.wall
				alloc += r.allocBytes
				ph.jobs += r.c.Released
			}
			ph.runWall += wall
			ph.passes.add(wall)
			ph.alloc += alloc
			ph.runs = append(ph.runs, runs)
			ph.probes = append(ph.probes, probes)
			checkCells(cfg, out, "pass", runs, want)
		}
		ph.cpu, ph.wall = cpuTime()-cpu0, time.Since(start)
		if prof != nil {
			var err error
			if ph.shares, err = prof.stop(); err != nil {
				return nil, err
			}
		}
		return ph, nil
	}

	window := cfg.window
	if cfg.trace {
		window /= 2
	}
	plain, err := measure(window, false)
	if err != nil {
		return nil, err
	}

	for i, cell := range scaleCells {
		fmt.Fprintf(cfg.log, "scale %-9s %v\n", cell, want[i])
	}
	fmt.Fprintf(cfg.log, "scale_jobs_per_s %.1f 1/s (%d jobs over %.3f s of runs, %d passes; pass p50 %.1f ms, p99 %.1f ms)\n",
		float64(plain.jobs)/plain.runWall.Seconds(), plain.jobs, plain.runWall.Seconds(), plain.passes.n(),
		plain.passes.ms(0.5), plain.passes.ms(0.99))
	allocMB := float64(plain.alloc) / 1e6 / float64(plain.passes.n())
	fmt.Fprintf(cfg.log, "scale_alloc_mb %.3f MB per pass\n", allocMB)
	out.e2e["setup_s"] = metric{medianDur(setups).Seconds(), "s"}
	out.e2e["op_cpu_ms"] = metric{plain.cpu1.ms(0.5), "ms"}
	out.e2e["op_alloc_mb"] = metric{allocMB, "MB"}
	out.e2e["ok_frac"] = metric{okFrac(out), "frac"}

	if cfg.trace {
		tr, err := measure(window, true)
		if err != nil {
			return nil, err
		}
		if len(tr.probes) == 0 {
			return nil, fmt.Errorf("traced half ran no pass")
		}
		scaleLayers(cfg, out, tr.runs, tr.probes)
		out.layer["runner.cpu_util"] = metric{tr.cpu.Seconds() / tr.wall.Seconds(), "frac"}
		for b, s := range tr.shares {
			out.layer[b+".cpu_share"] = metric{s, "frac"}
		}
		out.layer["wall.op_p50_ms"] = metric{plain.passes.ms(0.5), "ms"}
		out.layer["trace.overhead_frac"] = metric{tr.cpu1.ms(0.5)/plain.cpu1.ms(0.5) - 1, "frac"}
	}
	return out, nil
}

// checkCells fails the pass if any cell's counters differ from want or
// its AUR or CMR is not 1.000.
func checkCells(cfg config, out *outcome, what string, runs []cellRun, want []counters) {
	var bad []string
	for i, r := range runs {
		if r.c != want[i] || r.c.AUR != "1.000" || r.c.CMR != "1.000" {
			bad = append(bad, fmt.Sprintf("%s: %v, want %v", scaleCells[i], r.c, want[i]))
		}
	}
	if len(bad) > 0 {
		out.fail(cfg, "scale %s: %s", what, strings.Join(bad, "; "))
	}
}

// scaleLayers reports the traced passes' RUA and engine metrics. Counts
// are per pass and must repeat exactly on every traced pass.
func scaleLayers(cfg config, out *outcome, runs [][]cellRun, probes [][]*probe) {
	n := float64(len(runs))
	var calls, ops, feasOK, feasFail int64
	var ruaNs float64
	for i, cell := range scaleCells {
		first := probes[0][i]
		var self, alloc float64
		var mallocs []uint64
		for pi := range runs {
			pr, r := probes[pi][i], runs[pi][i]
			if pr.calls != first.calls || pr.ops != first.ops || pr.kinds != first.kinds {
				out.fail(cfg, "scale traced %s: calls=%d ops=%d differ from first traced pass calls=%d ops=%d",
					cell, pr.calls, pr.ops, first.calls, first.ops)
			}
			busy := pr.ruaNs - pr.obsInRUA
			ruaNs += float64(busy)
			self += float64(int64(r.wall) - busy - pr.obsNs)
			alloc += float64(r.allocBytes)
			mallocs = append(mallocs, r.mallocs)
		}
		calls += first.calls
		ops += first.ops
		feasOK += first.kinds[trace.FeasOK]
		feasFail += first.kinds[trace.FeasFail]
		var events int64
		for k, c := range first.kinds {
			if k != int(trace.FeasOK) && k != int(trace.FeasFail) {
				events += c
			}
		}
		c := runs[0][i].c
		p := "engine." + cell + "."
		out.layer[p+"events"] = metric{float64(events), "count"}
		out.layer[p+"self_s"] = metric{self / n / 1e9, "s"}
		out.layer[p+"ns_per_event"] = metric{self / n / float64(events), "ns"}
		out.layer[p+"ctx_switches"] = metric{float64(c.CtxSwitches), "count"}
		out.layer[p+"retries"] = metric{float64(c.Retries), "count"}
		out.layer[p+"lock_events"] = metric{float64(c.LockEvents), "count"}
		out.layer[p+"alloc_bytes_per_job"] = metric{alloc / n / float64(c.Released), "B"}
		stable := true
		for _, m := range mallocs {
			stable = stable && m == mallocs[0]
		}
		fmt.Fprintf(cfg.log, "scale traced %-9s events=%d sched_calls=%d charged_ops=%d feas_ok=%d feas_fail=%d allocs_per_job=%.3f allocs_stable=%v\n",
			cell, events, first.calls, first.ops, first.kinds[trace.FeasOK], first.kinds[trace.FeasFail],
			float64(mallocs[0])/float64(c.Released), stable)
	}
	out.layer["rua.select_calls"] = metric{float64(calls), "count"}
	out.layer["rua.charged_ops"] = metric{float64(ops), "count"}
	out.layer["rua.busy_s"] = metric{ruaNs / n / 1e9, "s"}
	out.layer["rua.ns_per_call"] = metric{ruaNs / n / float64(calls), "ns"}
	out.layer["rua.feas_fail_frac"] = metric{ratio(float64(feasFail), float64(feasOK+feasFail)), "frac"}
}
