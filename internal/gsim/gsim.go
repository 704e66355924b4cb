// Package gsim is the GLOBAL multiprocessor extension of the simulator —
// the second half of the paper's §7 future work (internal/multi covers
// the partitioned half). M identical processors share one ready queue; at
// every scheduling event the scheduler ranks all live jobs (sched.TopK)
// and the M highest-priority runnable jobs execute in parallel, with
// migration allowed.
//
// The interesting new physics is true parallel object conflict, which
// cannot happen on one processor: two jobs can be INSIDE the same
// lock-free object's access simultaneously, so optimistic execution must
// validate at commit time — a job reaching the end of its access re-runs
// it if any conflicting commit landed on the object since the access
// began (exactly a failed CAS). Retries therefore occur without any
// preemption, which is why the paper's uniprocessor Theorem 2 bound does
// not transfer to global scheduling and why the paper leaves
// multiprocessors as future work; the gsim experiment quantifies that
// gap empirically.
//
// The event loop, arrivals, per-job state, commit path (with the
// commit-time validation above) and pass accounting live in
// internal/sim/kernel, shared with the uniprocessor engine. This package
// is the global dispatch policy on top: the scheduler's ranked top-K
// (with abort decisions when it has them) and the stochastic ranked-list
// shuffle, an affinity-preserving assignment of the ranking to CPUs,
// instantaneous aborts, and a Preempt event whenever a running job is
// stopped.
//
// Model simplifications relative to internal/sim (documented, validated):
// abort handlers are instantaneous (AbortCost must be 0), explicit
// Lock/Unlock sections are unsupported, and scheduler overhead is
// modelled as a global dispatch latency. DESIGN.md tabulates every place
// the two models diverge.
package gsim

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/fault"
	"repro/internal/rtime"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/sim/kernel"
	"repro/internal/stoch"
	"repro/internal/task"
	"repro/internal/trace"
	"repro/internal/uam"
)

// ErrConfig reports an invalid configuration.
var ErrConfig = errors.New("gsim: invalid config")

// Config describes a global multiprocessor run.
type Config struct {
	CPUs      int
	Tasks     []*task.Task
	Scheduler sched.TopK
	Mode      sim.Mode
	R, S      rtime.Duration
	OpCost    float64
	Horizon   rtime.Time

	ArrivalKind uam.Kind
	Seed        int64
	Arrivals    []uam.Trace

	// Observer, when non-nil, receives the same trace-event vocabulary
	// internal/sim emits, with Event.CPU carrying the dispatching
	// processor (or -1 for unbound events: arrivals, aborts, scheduler
	// passes — the global scheduler runs on no particular CPU). The
	// stream is nondecreasing in Event.At: every emission is stamped at
	// the engine event being processed, so online sinks (internal/obs)
	// can fold it without buffering or sorting.
	Observer func(trace.Event)

	// Fault, when active, injects deterministic faults exactly as
	// sim.Config.Fault does; see internal/fault. Phantom-writer CAS
	// failures compose with this engine's real commit-time validation:
	// a commit must survive both to land.
	Fault *fault.Plan

	// Stoch, when active, overlays the seeded stochastic scheduler
	// (internal/stoch): per-CPU dispatches are force-preempted after a
	// drawn quantum, and a picked pass shuffles the scheduler's ranked
	// list (the ranked-dispatch analogue of the uniprocessor engine's
	// random pick). The global pass hashes with CPU coordinate -1 —
	// the same convention its unbound trace events use — and quanta
	// hash with the dispatching CPU. Nil or inactive plans leave the
	// run bit-for-bit identical to one without the field.
	Stoch *stoch.Plan
}

func (c *Config) validate(kc *kernel.Config) error {
	if c.CPUs < 1 {
		return fmt.Errorf("%w: %d CPUs", ErrConfig, c.CPUs)
	}
	if c.Scheduler == nil {
		return fmt.Errorf("%w: no scheduler", ErrConfig)
	}
	if err := kc.Validate(ErrConfig); err != nil {
		return err
	}
	for _, t := range c.Tasks {
		if t.AbortCost != 0 {
			return fmt.Errorf("%w: task %d has AbortCost %v; gsim models instantaneous handlers", ErrConfig, t.ID, t.AbortCost)
		}
		if t.UsesExplicitSections() {
			return fmt.Errorf("%w: task %d uses explicit Lock/Unlock sections (unsupported in gsim)", ErrConfig, t.ID)
		}
	}
	return nil
}

// Engine executes one global multiprocessor run.
type Engine struct {
	k *kernel.Kernel
}

// global is the global top-M dispatch policy.
type global struct {
	k       *kernel.Kernel
	cfg     Config
	pending []*task.Job // the latest pass's ranking, awaiting its overhead
	sel     []*task.Job // Dispatch scratch: the jobs selected for the CPUs
	shufBuf []*task.Job // stochastic ranked-shuffle scratch (reused)
}

// New builds an engine.
func New(cfg Config) (*Engine, error) {
	kc := kernel.Config{
		Tasks: cfg.Tasks, Mode: cfg.Mode, R: cfg.R, S: cfg.S, OpCost: cfg.OpCost, Horizon: cfg.Horizon,
		ArrivalKind: cfg.ArrivalKind, Seed: cfg.Seed, Arrivals: cfg.Arrivals, Observer: cfg.Observer,
		Fault: cfg.Fault, Stoch: cfg.Stoch, CPUs: cfg.CPUs, UnboundCPU: -1,
	}
	if err := cfg.validate(&kc); err != nil {
		return nil, err
	}
	if so, ok := cfg.Scheduler.(interface{ SetObserver(func(trace.Event)) }); ok {
		// Scheduler-emitted events (RUA feasibility tests) are unbound to
		// a CPU under global scheduling, like SchedPass.
		obs := cfg.Observer
		if obs == nil {
			so.SetObserver(nil)
		} else {
			so.SetObserver(func(ev trace.Event) {
				ev.CPU = -1
				obs(ev)
			})
		}
	}
	g := &global{cfg: cfg, sel: make([]*task.Job, 0, cfg.CPUs)}
	k, err := kernel.New(kc, g)
	if err != nil {
		return nil, err
	}
	g.k = k
	if cfg.Stoch.Active() {
		// Rankings never exceed the live set, which never exceeds total
		// arrivals; sizing the scratch here keeps the shuffle
		// allocation-free.
		g.shufBuf = make([]*task.Job, cap(k.Live))
	}
	return &Engine{k: k}, nil
}

// Run executes to the horizon.
//
//rtlint:noalloc the kernel's run loop and this engine's policy methods are verified noalloc
func (e *Engine) Run() sim.Result { return e.k.Run() }

// Pass ranks every live job; a picked stochastic pass shuffles the
// ranking.
//
//rtlint:noalloc reached from the kernel's run loop once per scheduling pass
func (g *global) Pass() (int64, []*task.Job) {
	w := g.k.World()
	var ranked, aborts []*task.Job
	var ops int64
	if ab, ok := g.cfg.Scheduler.(sched.TopKAborter); ok {
		// Schedulers with abort decisions (RUA's admission-control
		// shedding) surface them here; plain TopK schedulers cannot.
		ranked, aborts, ops = ab.SelectTopKAbort(w, len(w.Jobs))
	} else {
		ranked, ops = g.cfg.Scheduler.SelectTopK(w, len(w.Jobs))
	}
	if len(ranked) > 1 {
		// Stochastic pick, ranked-dispatch form: a picked pass runs a
		// deterministic Fisher–Yates over a copy of the ranking, so the
		// top-M slots become a uniform random draw from the live set.
		if _, ok := g.cfg.Stoch.Pick(-1, w.Now, len(ranked)); ok {
			ranked = g.shufBuf[:copy(g.shufBuf, ranked)]
			for i := len(ranked) - 1; i > 0; i-- {
				k := g.cfg.Stoch.Swap(-1, w.Now, i)
				ranked[i], ranked[k] = ranked[k], ranked[i]
			}
		}
	}
	g.pending = ranked
	return ops, aborts
}

// Dispatch maps the ranking onto the CPUs: jobs keep their CPU if
// re-selected in the top slots (affinity); remaining CPUs fill from the
// ranking in priority order. A dispatch can fail benignly — an earlier
// dispatch in the same round may have taken the lock a later candidate
// needs, blocking it at its boundary — in which case the next ranked job
// backfills.
//
//rtlint:noalloc reached from the kernel's run loop once per dispatch
func (g *global) Dispatch() {
	k := g.k
	w := k.World()
	g.sel = g.sel[:0]
	for _, j := range g.pending {
		if len(g.sel) == cap(g.sel) {
			break
		}
		if sched.Runnable(w, j) && !slices.Contains(g.sel, j) {
			g.sel = g.sel[:len(g.sel)+1]
			g.sel[len(g.sel)-1] = j
		}
	}
	// Stop de-selected runners.
	for cpu, r := range k.Running {
		if r != nil && !slices.Contains(g.sel, r) {
			k.Stop(cpu)
		}
	}
	// Fill free CPUs from the ranking, skipping jobs already placed and
	// jobs that block at dispatch time.
	for _, j := range g.pending {
		cpu := slices.Index(k.Running, nil)
		if cpu < 0 || k.Err() != nil {
			break
		}
		if !j.Done() && j.State != task.Aborting && !slices.Contains(k.Running, j) {
			g.start(cpu, j)
		}
	}
}

// start dispatches j onto cpu unless it blocks at its lock boundary (a
// benign outcome of a same-round acquisition by a higher-ranked job).
func (g *global) start(cpu int, j *task.Job) {
	k := g.k
	if st := k.State(j); st.MidAccess {
		st.MidAccess = false
		if obj, in := j.InAccess(); in && k.Res.CommittedAfter(obj, st.AccessStart) {
			k.Restart(cpu, j)
		}
	}
	if obj, ok := j.AtAccessStart(); ok && k.LockBased() && k.Res.Owner(obj) != j && !k.Acquire(cpu, j, obj, k.Now) {
		return
	}
	k.Start(cpu, j)
}

// Abort retires the job at once: handlers are instantaneous here.
//
//rtlint:noalloc reached from the kernel's run loop once per abort
func (g *global) Abort(j *task.Job) {
	g.k.Retire(j)
	g.k.RemoveLive(j)
}

// Descheduled reports the preemption at stop time. It is stamped at the
// current event, not at the CPU's settled position: a pass reached from
// another CPU's boundary may stop a CPU that was not settled this event,
// but the job occupied it until now, and stamping now keeps the observer
// stream nondecreasing in virtual time (the ordering contract
// internal/obs streams over).
//
//rtlint:noalloc reached from the kernel's run loop once per deschedule
func (g *global) Descheduled(cpu int, j *task.Job) {
	g.k.Emit(g.k.Now, trace.Preempt, j, -1, cpu)
}

// Run is a convenience wrapper.
func Run(cfg Config) (sim.Result, error) {
	e, err := New(cfg)
	if err != nil {
		return sim.Result{}, err
	}
	r := e.Run()
	return r, r.Err
}
