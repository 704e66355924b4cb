// Package kernel is the discrete-event core both simulation engines run
// on: the uniprocessor engine (internal/sim) and the global
// multiprocessor engine (internal/gsim). It owns everything the two share
// — config validation, arrival generation with fault perturbation, the
// timing wheel and its per-CPU generation guards, the dense per-job state
// slab, observer emission, the run loop, the execution of running jobs up
// to their boundaries (lock-free access start and commit, phantom-CAS and
// commit-time retries, lock acquire/release, completion), the
// scheduling-pass accounting and the stochastic quantum — and leaves one
// narrow Policy per engine: how a pass ranks and picks, how its choice is
// dispatched, and how an aborted job is handled.
//
// Policy methods run once per scheduling pass, dispatch, abort or
// deschedule, never on the per-Step path of a running job: the only one
// reachable from job execution is Descheduled, at a lock-based stop that
// is always followed by a pass. So the run loop's cost does not depend
// on the engine.
package kernel

import (
	"fmt"
	"math"

	"repro/internal/fault"
	"repro/internal/resource"
	"repro/internal/rtime"
	"repro/internal/rtime/wheel"
	"repro/internal/sched"
	"repro/internal/stoch"
	"repro/internal/task"
	"repro/internal/trace"
	"repro/internal/uam"
)

// Mode selects the synchronization substrate.
type Mode int

// Synchronization modes.
const (
	// LockBased serializes object accesses with locks; lock and unlock
	// requests are scheduling events (§3).
	LockBased Mode = iota
	// LockFree lets accesses run optimistically; the only scheduling
	// events are job arrivals and departures (§4.1), and a preempted
	// access retries on resume.
	LockFree
)

// String renders the mode.
func (m Mode) String() string {
	if m == LockFree {
		return "lock-free"
	}
	return "lock-based"
}

// Result aggregates a finished run.
type Result struct {
	Jobs []*task.Job // every job released before the horizon

	Arrivals    int64
	Completions int64
	Aborts      int64

	SchedInvocations int64
	SchedOps         int64
	LockEvents       int64
	CtxSwitches      int64
	Retries          int64 // Σ per-job lock-free retries

	ExecTime    rtime.Duration // CPU time spent executing jobs
	Overhead    rtime.Duration // CPU time spent in the scheduler
	HandlerTime rtime.Duration // CPU time spent in abort handlers

	// AccessTime is the summed effective object-access latency: from a
	// job's first arrival at an access boundary to the access's commit,
	// including blocking, preemption, and retries. AccessTime/Accesses is
	// the measured r (lock-based) or s (lock-free) of Fig 8.
	AccessTime rtime.Duration
	Accesses   int64

	// Fault-injection accounting; all zero on fault-free runs.
	FaultArrivals int64 // jobs whose release was jittered or injected
	FaultOverruns int64 // jobs carrying hidden execution demand
	FaultRetries  int64 // lock-free retries forced by phantom writers
	FaultStalls   int64 // scheduler passes hit by a transient stall
	SchedAborts   int64 // jobs aborted by scheduler decision (sheds, deadlock victims)

	StallTime rtime.Duration // CPU time lost to injected stalls

	Horizon rtime.Time
	Err     error
}

// Busy returns the total CPU time consumed: job execution, scheduler
// overhead, abort handlers, and injected stalls.
func (r Result) Busy() rtime.Duration {
	return r.ExecTime + r.Overhead + r.HandlerTime + r.StallTime
}

// Utilization returns Busy divided by the horizon, the processor's
// long-run utilization over the run.
func (r Result) Utilization() float64 {
	if r.Horizon <= 0 {
		return 0
	}
	return float64(r.Busy()) / float64(r.Horizon)
}

// Config is the part of a run's configuration both engines share; the
// engines' public Config types document the fields.
type Config struct {
	Tasks       []*task.Task
	Mode        Mode
	R, S        rtime.Duration
	OpCost      float64
	Horizon     rtime.Time
	ArrivalKind uam.Kind
	Seed        int64
	Arrivals    []uam.Trace
	Observer    func(trace.Event)
	Fault       *fault.Plan
	Stoch       *stoch.Plan

	CPUs       int // processors; the uniprocessor engine is CPUs = 1
	StochCPU   int // added to the CPU index in every stochastic quantum hash
	UnboundCPU int // Event.CPU of events tied to no processor
}

// Validate checks the shared fields, wrapping every failure in sentinel.
func (c *Config) Validate(sentinel error) error {
	if len(c.Tasks) == 0 {
		return fmt.Errorf("%w: no tasks", sentinel)
	}
	if c.Horizon <= 0 {
		return fmt.Errorf("%w: horizon %v must be positive", sentinel, c.Horizon)
	}
	if c.R <= 0 || c.S <= 0 {
		return fmt.Errorf("%w: access costs R=%v S=%v must be positive", sentinel, c.R, c.S)
	}
	if c.OpCost < 0 || math.IsNaN(c.OpCost) || math.IsInf(c.OpCost, 0) {
		return fmt.Errorf("%w: op cost %v", sentinel, c.OpCost)
	}
	for _, t := range c.Tasks {
		if err := t.Validate(); err != nil {
			return err
		}
	}
	if len(c.Arrivals) > len(c.Tasks) {
		return fmt.Errorf("%w: %d arrival traces for %d tasks", sentinel, len(c.Arrivals), len(c.Tasks))
	}
	for i, tr := range c.Arrivals {
		for k, at := range tr {
			if k > 0 && at < tr[k-1] {
				return fmt.Errorf("%w: arrival trace %d is not sorted", sentinel, i)
			}
			if at < 0 || at >= c.Horizon {
				return fmt.Errorf("%w: arrival trace %d: %v outside [0, %v)", sentinel, i, at, c.Horizon)
			}
		}
	}
	return nil
}

// Policy is the dispatch discipline an engine layers on the kernel.
type Policy interface {
	// Pass ranks the live jobs at the kernel's current time, keeps the
	// choice for Dispatch, and returns the charged scheduler operations
	// and the jobs the scheduler decided to abort.
	Pass() (ops int64, aborts []*task.Job)
	// Dispatch puts the latest pass's choice on the processors, once the
	// pass's overhead has elapsed.
	Dispatch()
	// Abort runs the handler of a job the kernel has just stopped and
	// marked Aborting, for a critical-time expiry or a scheduler abort.
	Abort(j *task.Job)
	// Descheduled reports that j, running on cpu, was stopped and made
	// Ready again.
	Descheduled(cpu int, j *task.Job)
}

type evKind int32

const (
	evArrival evKind = iota
	evCritical
	evInternal
	evDispatch
	evAbortDone
	evPreempt // stochastic forced preemption at quantum expiry
)

// event is one scheduled occurrence. Ordering — ascending (at, push
// order) — is the timing wheel's contract (see internal/rtime/wheel).
// kind and cpu share one word, keeping an event at 32 bytes.
type event struct {
	at   rtime.Time
	kind evKind
	cpu  int32
	job  *task.Job
	gen  int64
}

// JobState is the kernel's per-job bookkeeping: one entry of a dense slab
// indexed by task.Job.Idx, the job's creation order.
type JobState struct {
	AccessStart rtime.Time // when the current lock-free attempt began consuming
	StopSeq     int64      // DispatchSeq when the job was stopped mid-access
	entryTime   rtime.Time // when the job first reached the stamped access boundary
	entrySeg    int32      // segment index of that boundary (-1 none)
	casAttempt  int32      // phantom-CAS failures suffered on the current access
	MidAccess   bool       // stopped while inside a lock-free access
}

// Kernel executes one configured run for a Policy.
type Kernel struct {
	cfg Config
	pol Policy
	acc rtime.Duration

	Now    rtime.Time
	Res    *resource.Map
	Live   []*task.Job // released jobs in arrival order; completions leave at once, aborted jobs when the policy removes them
	Result Result

	// Running and runPos are per CPU: the job on the processor and how far
	// its execution has been advanced. internalGen guards each CPU's
	// boundary event; dispatchGen guards the deferred dispatch and the
	// stochastic quanta of the current pass.
	Running     []*task.Job
	runPos      []rtime.Time
	internalGen []int64
	dispatchGen int64

	busyUntil   rtime.Time // end of the pass overhead and handlers queued so far
	DispatchSeq int64      // dispatches so far

	events *wheel.Wheel[event]
	states []JobState
	all    []*task.Job

	// Stepping state: the wheel has no Peek, so NextAt pops the next
	// event into a one-slot stash that StepNext consumes.
	stash    event
	stashed  bool
	finished bool
	fail     error
}

// New builds a kernel from a validated config, pre-generating every
// arrival over the horizon.
func New(cfg Config, pol Policy) (*Kernel, error) {
	k := &Kernel{
		cfg:         cfg,
		pol:         pol,
		acc:         cfg.S,
		Res:         resource.NewMap(),
		Running:     make([]*task.Job, cfg.CPUs),
		runPos:      make([]rtime.Time, cfg.CPUs),
		internalGen: make([]int64, cfg.CPUs),
	}
	if cfg.Mode == LockBased {
		k.acc = cfg.R
	}
	traces := make([]uam.Trace, len(cfg.Tasks))
	injected := make([][]bool, len(cfg.Tasks))
	arrivals := 0
	for i, t := range cfg.Tasks {
		if cfg.Arrivals != nil {
			if i < len(cfg.Arrivals) {
				traces[i] = cfg.Arrivals[i]
			}
		} else {
			g, err := uam.NewGenerator(t.Arrival, cfg.Seed+int64(i)*7919)
			if err != nil {
				return nil, err
			}
			traces[i] = g.Generate(cfg.ArrivalKind, cfg.Horizon)
		}
		// Fault injection perturbs the releases AFTER generation (or on
		// top of explicit traces), keyed purely by (plan seed, task id,
		// arrival index) so every engine perturbs a task identically.
		traces[i], injected[i] = cfg.Fault.PerturbArrivals(t.ID, traces[i], cfg.Horizon)
		arrivals += len(traces[i])
	}
	// Each arrival holds at most an arrival plus a critical-time event at
	// once; dispatch and boundary events are transient. Sizing the wheel
	// arena, the job slab and the job lists to the known arrival count
	// keeps the run loop allocation-free.
	k.events = wheel.New[event](2*arrivals + 8)
	k.states = make([]JobState, arrivals)
	k.all = make([]*task.Job, 0, arrivals)
	k.Live = make([]*task.Job, 0, arrivals)
	idx := int32(0)
	for i, t := range cfg.Tasks {
		u := t.ComputeTime()
		for n, at := range traces[i] {
			j := task.NewJob(t, n, at)
			j.Idx = idx
			k.states[idx].entrySeg = -1
			idx++
			j.Injected = injected[i] != nil && injected[i][n]
			j.SetOverrun(cfg.Fault.Overrun(t.ID, n, u))
			k.push(event{at: at, kind: evArrival, job: j})
		}
	}
	return k, nil
}

func (k *Kernel) push(ev event) {
	k.events.Push(ev.at, ev)
}

// State returns j's slab entry.
func (k *Kernel) State(j *task.Job) *JobState { return &k.states[j.Idx] }

// LockBased reports whether the run serializes accesses with locks.
func (k *Kernel) LockBased() bool { return k.cfg.Mode == LockBased }

// World is the scheduler's view of the system at the current time.
func (k *Kernel) World() sched.World {
	return sched.World{Now: k.Now, Jobs: k.Live, Res: k.Res, Acc: k.acc, LockBased: k.LockBased()}
}

// Fail records the run's first failure; the run stops after the current
// event.
func (k *Kernel) Fail(err error) {
	if k.fail == nil {
		k.fail = err
	}
}

// Err returns the run's failure, if any.
func (k *Kernel) Err() error { return k.fail }

// Emit reports a job-bound trace event to the observer.
func (k *Kernel) Emit(at rtime.Time, kind trace.Kind, j *task.Job, obj, cpu int) {
	if k.cfg.Observer == nil || j == nil {
		return
	}
	k.cfg.Observer(trace.Event{At: at, Kind: kind, Task: j.Task.ID, Seq: j.Seq, Object: obj, CPU: cpu})
}

// emitSched reports a scheduler-level event, bound to no job or CPU.
func (k *Kernel) emitSched(kind trace.Kind, ops int64) {
	if k.cfg.Observer == nil {
		return
	}
	k.cfg.Observer(trace.Event{At: k.Now, Kind: kind, Task: -1, Seq: -1, Object: -1, CPU: k.cfg.UnboundCPU, Ops: ops})
}

// pushInternal schedules cpu's next boundary, superseding its previous one.
func (k *Kernel) pushInternal(cpu int, at rtime.Time) {
	k.internalGen[cpu]++
	k.push(event{at: at, kind: evInternal, cpu: int32(cpu), gen: k.internalGen[cpu]})
}

// RemoveLive drops a retired job from the live list, keeping its order.
func (k *Kernel) RemoveLive(j *task.Job) {
	for i, x := range k.Live {
		if x == j {
			copy(k.Live[i:], k.Live[i+1:])
			k.Live = k.Live[:len(k.Live)-1]
			return
		}
	}
}

// Run executes the simulation to the horizon and returns the result.
//
//rtlint:noalloc steady state carves from pre-sized slabs and reused scratch
func (k *Kernel) Run() Result {
	for k.StepNext() {
	}
	return k.Finish()
}

// next pops the next live event (skipping superseded generation-guarded
// ones) into the stash, or reports none remain.
func (k *Kernel) next() (event, bool) {
	for !k.stashed {
		if k.events.Len() == 0 {
			return event{}, false
		}
		_, ev, _ := k.events.Pop()
		if ev.kind == evInternal && ev.gen != k.internalGen[ev.cpu] {
			continue
		}
		if (ev.kind == evDispatch || ev.kind == evPreempt) && ev.gen != k.dispatchGen {
			continue
		}
		k.stash = ev
		k.stashed = true
	}
	return k.stash, true
}

// NextAt peeks the virtual time of the next event. ok is false when
// nothing is left to process: no events remain, the next one lies beyond
// the horizon, or the run failed.
func (k *Kernel) NextAt() (rtime.Time, bool) {
	if k.fail != nil || k.finished {
		return 0, false
	}
	ev, ok := k.next()
	if !ok || ev.at > k.cfg.Horizon {
		return 0, false
	}
	return ev.at, true
}

// StepNext processes exactly one event and reports whether the run can
// continue. Observer emissions of the processed event all carry its
// virtual time, so repeatedly calling StepNext yields an event stream
// nondecreasing in Event.At.
//
//rtlint:noalloc steady state carves from pre-sized slabs and reused scratch
func (k *Kernel) StepNext() bool {
	if k.fail != nil || k.finished {
		return false
	}
	ev, ok := k.next()
	if !ok || ev.at > k.cfg.Horizon {
		k.finished = true
		return false
	}
	k.stashed = false
	k.Now = ev.at
	var resched bool
	if ev.kind == evInternal {
		resched = k.settle(int(ev.cpu))
	} else {
		for cpu := range k.Running {
			if k.settle(cpu) {
				resched = true
			}
		}
	}
	switch j := ev.job; ev.kind {
	case evArrival:
		k.Live = k.Live[:len(k.Live)+1]
		k.Live[len(k.Live)-1] = j
		k.all = k.all[:len(k.all)+1]
		k.all[len(k.all)-1] = j
		k.Result.Arrivals++
		k.Emit(k.Now, trace.Arrival, j, -1, k.cfg.UnboundCPU)
		if j.Injected {
			k.Result.FaultArrivals++
			k.Emit(k.Now, trace.FaultArrival, j, -1, k.cfg.UnboundCPU)
		}
		if j.Overrun > 0 {
			k.Result.FaultOverruns++
			k.Emit(k.Now, trace.FaultOverrun, j, -1, k.cfg.UnboundCPU)
		}
		k.push(event{at: j.AbsoluteCriticalTime(), kind: evCritical, job: j})
		resched = true
	case evCritical:
		if !j.Done() && j.State != task.Aborting {
			k.abort(j)
			resched = true
		}
	case evAbortDone:
		if j.State == task.Aborting {
			k.Retire(j)
			resched = true // departure is a scheduling event
		}
	case evDispatch:
		k.pol.Dispatch()
	case evPreempt:
		// The stochastic quantum expired with its pass still current
		// (gen-guarded in next): force a scheduling pass.
		if k.Running[ev.cpu] != nil {
			resched = true
		}
	}
	if resched && k.fail == nil {
		k.reschedule()
	}
	return k.fail == nil
}

// Finish seals and returns the result. Idempotent; call it after
// StepNext reports the run is over (Run does).
func (k *Kernel) Finish() Result {
	k.Result.Jobs = k.all
	k.Result.Horizon = k.cfg.Horizon
	k.Result.Err = k.fail
	k.Result.Retries = 0
	for _, j := range k.all {
		k.Result.Retries += j.Retries
	}
	return k.Result
}

// settle advances cpu's running job to Now, processing every boundary it
// crosses on the way. It reports whether a scheduling event occurred
// (lock traffic, completion).
func (k *Kernel) settle(cpu int) bool {
	j := k.Running[cpu]
	if j == nil {
		return false
	}
	delta := k.Now.Sub(k.runPos[cpu])
	for {
		used, stepEv := j.Step(delta, k.acc)
		delta -= used
		at := k.runPos[cpu].Add(used)
		k.runPos[cpu] = at
		k.Result.ExecTime += used
		switch stepEv {
		case task.StepBudget:
			return false
		case task.StepAccessStart:
			obj, _ := j.AtAccessStart()
			k.stampEntry(j, at)
			if k.cfg.Mode == LockFree {
				// Not a scheduling event (§4.1): fall straight into the
				// access; the fresh boundary event marks its commit point.
				k.State(j).AccessStart = at
				k.pushInternal(cpu, at.Add(j.TimeToBoundary(k.acc)))
				continue
			}
			k.Acquire(cpu, j, obj, at)
			k.Stop(cpu)
			return true
		case task.StepAccessEnd:
			obj := j.Task.Segments[j.SegIdx-1].Object
			if k.cfg.Mode == LockBased {
				k.stampAccess(j, at)
				k.release(cpu, j, obj, at)
				k.Stop(cpu)
				return true
			}
			k.commit(cpu, j, obj, at)
			k.pushInternal(cpu, at.Add(j.TimeToBoundary(k.acc)))
			continue
		case task.StepLock:
			obj, _ := j.PendingLock()
			if k.Acquire(cpu, j, obj, at) {
				j.PassBoundary()
			}
			k.Stop(cpu)
			return true
		case task.StepUnlock:
			obj := j.Task.Segments[j.SegIdx].Object
			j.PassBoundary()
			k.release(cpu, j, obj, at)
			k.Stop(cpu)
			return true
		case task.StepCompleted:
			j.State = task.Completed
			j.Completion = at
			k.Res.ReleaseAll(j)
			k.Result.Completions++
			k.Emit(at, trace.Complete, j, -1, cpu)
			k.RemoveLive(j)
			k.Running[cpu] = nil
			return true
		}
	}
}

// commit ends j's lock-free access on obj at time at. The attempt fails —
// and the access re-runs from the start — when a conflicting commit
// landed on obj since the attempt began (a failed CAS; on one processor
// this cannot happen, because a job descheduled mid-access re-runs the
// access at dispatch before any such commit could be seen here) or when
// an injected phantom writer wins the race.
func (k *Kernel) commit(cpu int, j *task.Job, obj int, at rtime.Time) {
	st := k.State(j)
	kind := trace.Retry
	switch {
	case k.Res.CommittedAfter(obj, st.AccessStart):
	case k.cfg.Fault.PhantomCAS(j.Task.ID, j.Seq, j.SegIdx-1, int(st.casAttempt)):
		// The entry stamp survives, so AccessTime keeps accumulating
		// through the retry as it does for real interference.
		st.casAttempt++
		k.Result.FaultRetries++
		kind = trace.FaultRetry
	default:
		k.stampAccess(j, at)
		st.casAttempt = 0
		k.Res.RecordCommit(obj, at)
		k.Emit(at, trace.Commit, j, obj, cpu)
		return
	}
	j.Retries++
	j.SegIdx--
	j.SegDone = 0
	k.Emit(at, kind, j, obj, cpu)
	st.AccessStart = at
}

// stampEntry records the first arrival at the current access boundary.
func (k *Kernel) stampEntry(j *task.Job, at rtime.Time) {
	if st := k.State(j); st.entrySeg != int32(j.SegIdx) {
		st.entrySeg = int32(j.SegIdx)
		st.entryTime = at
	}
}

// stampAccess closes the access that just ended into AccessTime.
func (k *Kernel) stampAccess(j *task.Job, at rtime.Time) {
	if st := k.State(j); st.entrySeg == int32(j.SegIdx-1) {
		k.Result.AccessTime += at.Sub(st.entryTime)
		k.Result.Accesses++
		st.entrySeg = -1
	}
}

// Acquire requests obj's lock for j on cpu at time at: granted, or
// recorded as waiting with j Blocked. It reports whether the lock was
// granted.
func (k *Kernel) Acquire(cpu int, j *task.Job, obj int, at rtime.Time) bool {
	granted, _, err := k.Res.TryAcquire(j, obj)
	if err != nil {
		k.Fail(err)
		return false
	}
	k.Result.LockEvents++
	if granted {
		k.Emit(at, trace.LockAcquire, j, obj, cpu)
	} else {
		j.State = task.Blocked
		k.Emit(at, trace.Block, j, obj, cpu)
	}
	return granted
}

// release frees j's lock on obj at time at.
func (k *Kernel) release(cpu int, j *task.Job, obj int, at rtime.Time) {
	if err := k.Res.Release(j, obj); err != nil {
		k.Fail(err)
		return
	}
	k.Result.LockEvents++
	k.Emit(at, trace.LockRelease, j, obj, cpu)
}

// Stop takes cpu's running job off the processor, remembering whether it
// was inside a lock-free access. Unless it is blocked or aborting, the
// job returns to Ready and the policy is told it was descheduled.
func (k *Kernel) Stop(cpu int) {
	j := k.Running[cpu]
	if j == nil {
		return
	}
	if _, in := j.InAccess(); in && k.cfg.Mode == LockFree {
		st := k.State(j)
		st.MidAccess = true
		st.StopSeq = k.DispatchSeq
	}
	k.Running[cpu] = nil
	k.internalGen[cpu]++ // its boundary event is moot
	if j.State == task.Running {
		j.State = task.Ready
		k.pol.Descheduled(cpu, j)
	}
}

// Restart re-runs j's interrupted access from its start.
func (k *Kernel) Restart(cpu int, j *task.Job) {
	obj, _ := j.InAccess()
	j.RestartAccess()
	k.Emit(k.Now, trace.Retry, j, obj, cpu)
}

// Start dispatches j onto cpu at the current time and arms its next
// boundary and, under a stochastic plan, its quantum.
func (k *Kernel) Start(cpu int, j *task.Job) {
	j.State = task.Running
	j.Disp++
	k.DispatchSeq++
	k.Result.CtxSwitches++
	k.Emit(k.Now, trace.Dispatch, j, -1, cpu)
	k.Running[cpu] = j
	k.runPos[cpu] = k.Now
	if _, ok := j.AtAccessStart(); ok {
		// Covers jobs whose very first segment is an access (they never
		// cross an access boundary inside settle).
		k.State(j).AccessStart = k.Now
		k.stampEntry(j, k.Now)
	}
	k.pushInternal(cpu, k.Now.Add(j.TimeToBoundary(k.acc)))
	if q := k.cfg.Stoch.Step(k.cfg.StochCPU+cpu, k.Now); q > 0 {
		// A forced preemption unless a newer pass supersedes this one.
		k.push(event{at: k.Now.Add(q), kind: evPreempt, cpu: int32(cpu), gen: k.dispatchGen})
	}
}

// abort stops j wherever it runs, marks it Aborting, and hands it to the
// policy's abort handling.
func (k *Kernel) abort(j *task.Job) {
	// Marking the abort first keeps Stop from reporting a deschedule.
	j.State = task.Aborting
	for cpu, r := range k.Running {
		if r == j {
			k.Stop(cpu)
		}
	}
	j.AbortedAt = k.Now
	k.Emit(k.Now, trace.AbortBegin, j, -1, k.cfg.UnboundCPU)
	k.pol.Abort(j)
}

// Handle occupies the processor with j's abort handler for cost, after
// the pass overhead and handlers already queued, and retires j when the
// handler ends.
func (k *Kernel) Handle(j *task.Job, cost rtime.Duration) {
	k.busyUntil = rtime.MaxTime(k.busyUntil, k.Now).Add(cost)
	k.Result.HandlerTime += cost
	k.push(event{at: k.busyUntil, kind: evAbortDone, job: j})
}

// Retire completes j's abort: its resources are released and it leaves.
func (k *Kernel) Retire(j *task.Job) {
	j.State = task.Aborted
	k.Res.ReleaseAll(j)
	k.Result.Aborts++
	k.Emit(k.Now, trace.AbortDone, j, -1, k.cfg.UnboundCPU)
}

// reschedule runs one scheduling pass: the policy ranks and picks, the
// kernel charges the pass's overhead (plus any injected stall), starts
// the scheduler's aborts, and dispatches once the processor is free.
func (k *Kernel) reschedule() {
	ops, aborts := k.pol.Pass()
	k.Result.SchedInvocations++
	k.Result.SchedOps += ops
	k.emitSched(trace.SchedPass, ops)
	overhead := rtime.Duration(math.Round(float64(ops) * k.cfg.OpCost))
	k.Result.Overhead += overhead
	if stall := k.cfg.Fault.Stall(k.Result.SchedInvocations); stall > 0 {
		// A transient stall occupies the processor exactly like scheduler
		// overhead, but is accounted separately.
		k.Result.FaultStalls++
		k.Result.StallTime += stall
		k.emitSched(trace.FaultStall, int64(stall))
		overhead += stall
	}
	k.Result.SchedAborts += int64(len(aborts))
	for _, v := range aborts {
		if !v.Done() && v.State != task.Aborting {
			k.abort(v)
		}
	}
	k.dispatchGen++
	k.busyUntil = rtime.MaxTime(k.busyUntil, k.Now).Add(overhead)
	if k.busyUntil.After(k.Now) {
		k.push(event{at: k.busyUntil, kind: evDispatch, gen: k.dispatchGen})
		return
	}
	k.pol.Dispatch()
}
