// Package sim is the deterministic discrete-event substrate that stands
// in for the paper's QNX Neutrino testbed. It models a single preemptive
// processor under virtual time: jobs arrive under UAM, execute compute
// and shared-object access segments, acquire/release locks (lock-based
// mode) or commit/retry (lock-free mode), are aborted when their critical
// times expire (§3.5), and are dispatched by a pluggable scheduler whose
// decision cost — measured in charged operations — is converted into
// virtual scheduling overhead occupying the CPU.
//
// The event loop, arrivals, per-job state, commit path and pass
// accounting live in internal/sim/kernel, which internal/gsim runs on
// too. This package is the uniprocessor dispatch policy on top: the
// scheduler's Select (with the stochastic uniform pick), stop-all then
// re-dispatch at every pass, §3.6 abort handlers that occupy the CPU,
// explicit Lock/Unlock sections, and resume-time retry of a preempted
// lock-free access. DESIGN.md tabulates where this model and the global
// one differ.
//
// Why a simulator: the paper's claims are statements about scheduling
// event sequences (who preempts whom, how many retries an access suffers,
// how overhead scales with the ready-queue length), not about wall-clock
// physics. A Go process cannot provide RTOS priorities (the runtime
// scheduler and GC preempt arbitrarily), so real time would add noise
// without adding fidelity; virtual time gives exact, reproducible event
// interleavings. Real atomics-based objects are measured separately in
// internal/lockfree benchmarks.
package sim

import (
	"errors"
	"fmt"

	"repro/internal/fault"
	"repro/internal/rtime"
	"repro/internal/sched"
	"repro/internal/sim/kernel"
	"repro/internal/stoch"
	"repro/internal/task"
	"repro/internal/trace"
	"repro/internal/uam"
)

// Mode selects the synchronization substrate.
type Mode = kernel.Mode

// Synchronization modes.
const (
	// LockBased serializes object accesses with locks; lock and unlock
	// requests are scheduling events (§3).
	LockBased = kernel.LockBased
	// LockFree lets accesses run optimistically; the only scheduling
	// events are job arrivals and departures (§4.1), and a preempted
	// access retries on resume.
	LockFree = kernel.LockFree
)

// Result aggregates a finished run.
type Result = kernel.Result

// ErrConfig reports an invalid simulation configuration.
var ErrConfig = errors.New("sim: invalid config")

// Config describes one simulation run.
type Config struct {
	Tasks     []*task.Task
	Scheduler sched.Scheduler
	Mode      Mode

	// R and S are the lock-based and lock-free per-access costs (the r
	// and s of §5). The mode in force picks which one applies.
	R, S rtime.Duration

	// OpCost is the virtual time (in ticks, i.e. µs) charged per
	// scheduler operation. Zero models the "ideal" scheduler of Fig 9.
	OpCost float64

	Horizon rtime.Time

	// ArrivalKind and Seed drive the per-task UAM generators.
	ArrivalKind uam.Kind
	Seed        int64

	// Arrivals, when non-nil, replaces generated arrivals with explicit
	// per-task traces (index-aligned with Tasks; missing/short entries
	// mean no arrivals for that task). Each trace must be sorted and
	// within the horizon; UAM conformance is the caller's responsibility
	// (validate with uam.CheckTrace when it matters — tests deliberately
	// construct off-model scenarios).
	Arrivals []uam.Trace

	// Observer, when non-nil, receives a trace event for every
	// scheduling-relevant state change (arrivals, dispatches, blocks,
	// commits, retries, completions, aborts) plus one SchedPass per
	// scheduler invocation. If the Scheduler implements
	// SetObserver(func(trace.Event)) — as RUA does for its
	// FeasOK/FeasFail events — the engine wires it to the same observer
	// (and clears it when Observer is nil, so reused scheduler instances
	// never leak events to a previous run's recorder).
	Observer func(trace.Event)

	// ConservativeRetry selects retry accounting: true re-runs a
	// preempted lock-free access whenever any other job was dispatched in
	// between (the adversary Theorem 2 bounds); false retries only when a
	// conflicting commit actually landed on the same object.
	ConservativeRetry bool

	// Fault, when active, injects deterministic faults (internal/fault):
	// arrival jitter/bursts applied to the generated or explicit traces,
	// per-job execution overruns, phantom-writer CAS failures on
	// lock-free commits, and transient CPU stalls at scheduler passes.
	// A nil or inactive plan leaves the run bit-for-bit identical to one
	// without the field.
	Fault *fault.Plan

	// Stoch, when active, overlays the seeded stochastic-scheduler mode
	// (internal/stoch): dispatches are force-preempted after a randomly
	// drawn quantum, and a scheduling pass occasionally replaces the
	// deterministic scheduler's pick with a uniformly random runnable
	// job. Every decision is a pure hash of (plan seed, StochCPU,
	// virtual tick); a nil or inactive plan leaves the run bit-for-bit
	// identical to one without the field.
	Stoch *stoch.Plan

	// StochCPU is the processor coordinate folded into every stochastic
	// decision hash — 0 for standalone uniprocessor runs; the
	// partitioned engine sets it to the partition index so distinct
	// partitions draw independent decisions from one shared plan.
	StochCPU int
}

func (c *Config) validate(kc *kernel.Config) error {
	if c.Scheduler == nil {
		return fmt.Errorf("%w: no scheduler", ErrConfig)
	}
	if err := kc.Validate(ErrConfig); err != nil {
		return err
	}
	for _, t := range c.Tasks {
		if c.Mode == LockFree && t.UsesExplicitSections() {
			return fmt.Errorf("%w: task %d uses explicit Lock/Unlock sections, which the lock-free model excludes (§2)", ErrConfig, t.ID)
		}
	}
	return nil
}

// Engine executes one configured run.
type Engine struct {
	k *kernel.Kernel
}

// uni is the uniprocessor dispatch policy.
type uni struct {
	k       *kernel.Kernel
	cfg     Config
	pending *task.Job   // the latest pass's pick, awaiting its overhead
	lastRun *task.Job   // the job most recently dispatched
	pickBuf []*task.Job // stochastic-pick candidate scratch (reused)
}

// New builds an engine, pre-generating all UAM arrivals over the horizon.
func New(cfg Config) (*Engine, error) {
	kc := kernel.Config{
		Tasks: cfg.Tasks, Mode: cfg.Mode, R: cfg.R, S: cfg.S, OpCost: cfg.OpCost, Horizon: cfg.Horizon,
		ArrivalKind: cfg.ArrivalKind, Seed: cfg.Seed, Arrivals: cfg.Arrivals, Observer: cfg.Observer,
		Fault: cfg.Fault, Stoch: cfg.Stoch, CPUs: 1, StochCPU: cfg.StochCPU,
	}
	if err := cfg.validate(&kc); err != nil {
		return nil, err
	}
	if so, ok := cfg.Scheduler.(interface{ SetObserver(func(trace.Event)) }); ok {
		so.SetObserver(cfg.Observer)
	}
	u := &uni{cfg: cfg}
	k, err := kernel.New(kc, u)
	if err != nil {
		return nil, err
	}
	u.k = k
	if cfg.Stoch.Active() {
		// Live jobs never exceed total arrivals, so the pick scratch
		// sized here keeps the stochastic path allocation-free.
		u.pickBuf = make([]*task.Job, cap(k.Live))
	}
	return &Engine{k: k}, nil
}

// Run executes the simulation to the horizon and returns the result.
//
//rtlint:noalloc the kernel's run loop and this engine's policy methods are verified noalloc
func (e *Engine) Run() Result { return e.k.Run() }

// NextAt peeks the virtual time of the engine's next event. ok is false
// when the engine has nothing left to process: no events remain, the
// next event lies beyond the horizon, or the engine failed. The
// partitioned driver (internal/multi) uses this to interleave several
// engines' events in global time order.
func (e *Engine) NextAt() (rtime.Time, bool) { return e.k.NextAt() }

// StepNext processes exactly one event and reports whether the run can
// continue. Observer emissions of the processed event all carry its
// virtual time, so repeatedly calling StepNext yields an event stream
// nondecreasing in Event.At.
//
//rtlint:noalloc the kernel's run loop and this engine's policy methods are verified noalloc
func (e *Engine) StepNext() bool { return e.k.StepNext() }

// Finish seals and returns the result. Idempotent; call it after
// StepNext reports the run is over (Run does).
func (e *Engine) Finish() Result { return e.k.Finish() }

// Err returns the engine's failure, if any.
func (e *Engine) Err() error { return e.k.Err() }

// Pass stops the running job and asks the scheduler for the next one;
// under a stochastic plan the pick is occasionally replaced by a
// uniformly random runnable job.
//
//rtlint:noalloc reached from the kernel's run loop once per scheduling pass
func (u *uni) Pass() (int64, []*task.Job) {
	u.k.Stop(0)
	w := u.k.World()
	d := u.cfg.Scheduler.Select(w)
	if d.Run != nil && u.cfg.Stoch.Active() {
		// Candidates are collected from the live set in its
		// deterministic order, so the drawn index is reproducible.
		n := 0
		for _, j := range w.Jobs {
			if sched.Runnable(w, j) {
				u.pickBuf[n] = j
				n++
			}
		}
		if idx, ok := u.cfg.Stoch.Pick(u.cfg.StochCPU, w.Now, n); ok {
			d.Run = u.pickBuf[idx]
		}
	}
	u.pending = d.Run
	return d.Ops, d.Abort
}

// Dispatch runs the pass's pick: a job stopped inside a lock-free access
// first decides whether the access must re-run, and a lock-based job
// takes the lock its next segment needs.
//
//rtlint:noalloc reached from the kernel's run loop once per dispatch
func (u *uni) Dispatch() {
	k, j := u.k, u.pending
	if j == nil || j.Done() || j.State == task.Aborting {
		return
	}
	if st := k.State(j); st.MidAccess {
		st.MidAccess = false
		retry := false
		if u.cfg.ConservativeRetry {
			retry = k.DispatchSeq > st.StopSeq
		} else if obj, in := j.InAccess(); in {
			retry = k.Res.CommittedSince(obj, st.AccessStart)
		}
		if retry {
			k.Restart(0, j)
		}
	}
	if k.LockBased() {
		if obj, ok := j.PendingLock(); ok {
			if !u.take(j, obj) {
				return
			}
			j.PassBoundary()
		}
		if obj, ok := j.AtAccessStart(); ok && !u.take(j, obj) {
			return
		}
	}
	if prev := u.lastRun; prev != nil && prev != j && !prev.Done() && prev.State != task.Aborting {
		prev.Preempts++
		k.Emit(k.Now, trace.Preempt, prev, -1, 0)
	}
	u.lastRun = j
	k.Start(0, j)
}

// take acquires obj for j at dispatch unless j already holds it. A
// scheduler that dispatches a job whose lock is held elsewhere is broken,
// and the run fails.
func (u *uni) take(j *task.Job, obj int) bool {
	switch owner := u.k.Res.Owner(obj); owner {
	case j:
		return true
	case nil:
		return u.k.Acquire(0, j, obj, u.k.Now)
	default:
		u.k.Fail(fmt.Errorf("sim: scheduler %s dispatched %s, blocked on object %d held by %s", u.cfg.Scheduler.Name(), j.Name(), obj, owner.Name())) //rtlint:ignore noalloc failure path: the run is aborting with a diagnostic
		return false
	}
}

// Abort runs the §3.6 abort handler: it occupies the processor for the
// task's AbortCost, and the job departs when it ends.
//
//rtlint:noalloc reached from the kernel's run loop once per abort
func (u *uni) Abort(j *task.Job) {
	u.k.Res.Forget(j)
	u.k.Handle(j, j.Task.AbortCost)
}

// Descheduled is silent here: the uniprocessor engine reports a
// preemption when the next, different job is dispatched.
func (u *uni) Descheduled(int, *task.Job) {}

// Run is a convenience: build an engine and run it.
func Run(cfg Config) (Result, error) {
	e, err := New(cfg)
	if err != nil {
		return Result{}, err
	}
	r := e.Run()
	return r, r.Err
}
