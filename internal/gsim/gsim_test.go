package gsim

import (
	"errors"
	"testing"

	"repro/internal/metrics"
	"repro/internal/rtime"
	"repro/internal/rua"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/trace"
	"repro/internal/tuf"
	"repro/internal/uam"
)

func stepTask(id int, u float64, c rtime.Duration, comp rtime.Duration, m int, objs []int) *task.Task {
	return &task.Task{
		ID:       id,
		TUF:      tuf.MustStep(u, c),
		Arrival:  uam.Spec{L: 0, A: 1, W: 2 * c},
		Segments: task.InterleavedSegments(comp, m, objs),
	}
}

func staged(t *testing.T, cfg Config, arrivals map[int][]rtime.Time) sim.Result {
	t.Helper()
	traces := make([]uam.Trace, len(cfg.Tasks))
	for ti, times := range arrivals {
		traces[ti] = append(traces[ti], times...)
	}
	cfg.Arrivals = traces
	r, err := Run(cfg)
	if err != nil {
		t.Fatalf("gsim error: %v", err)
	}
	return r
}

func jobOf(r sim.Result, taskID, seq int) *task.Job {
	for _, j := range r.Jobs {
		if j.Task.ID == taskID && j.Seq == seq {
			return j
		}
	}
	return nil
}

func TestConfigValidation(t *testing.T) {
	good := Config{
		CPUs: 2, Tasks: []*task.Task{stepTask(0, 1, 1000, 100, 0, nil)},
		Scheduler: sched.EDF{}, R: 10, S: 3, Horizon: 10_000,
	}
	if _, err := New(good); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
	for name, mut := range map[string]func(*Config){
		"no-cpus":   func(c *Config) { c.CPUs = 0 },
		"no-tasks":  func(c *Config) { c.Tasks = nil },
		"no-sched":  func(c *Config) { c.Scheduler = nil },
		"bad-r":     func(c *Config) { c.R = 0 },
		"abortcost": func(c *Config) { c.Tasks[0].AbortCost = 5 },
		"unsorted":  func(c *Config) { c.Arrivals = []uam.Trace{{200, 100}} },
		"late":      func(c *Config) { c.Arrivals = []uam.Trace{{c.Horizon}} },
		"traces":    func(c *Config) { c.Arrivals = []uam.Trace{{0}, {0}} },
	} {
		c := good
		c.Tasks = []*task.Task{stepTask(0, 1, 1000, 100, 0, nil)}
		mut(&c)
		if _, err := New(c); !errors.Is(err, ErrConfig) {
			t.Errorf("%s accepted: %v", name, err)
		}
	}
}

func TestParallelIndependentJobs(t *testing.T) {
	// Two independent jobs on two CPUs both finish at their solo times.
	t0 := stepTask(0, 1, 1000, 100, 0, nil)
	t1 := stepTask(1, 1, 1000, 150, 0, nil)
	r := staged(t, Config{
		CPUs: 2, Tasks: []*task.Task{t0, t1}, Scheduler: sched.EDF{},
		Mode: sim.LockFree, R: 10, S: 3, Horizon: 10_000,
	}, map[int][]rtime.Time{0: {0}, 1: {0}})
	if j := jobOf(r, 0, 0); j.Completion != 100 {
		t.Fatalf("j0 completion = %v, want 100 (ran in parallel)", j.Completion)
	}
	if j := jobOf(r, 1, 0); j.Completion != 150 {
		t.Fatalf("j1 completion = %v, want 150", j.Completion)
	}
}

func TestSingleCPUMatchesUniprocessorEngine(t *testing.T) {
	// Stream differential: with one CPU, zero dispatch latency, no abort
	// cost and no fault or stochastic plan, gsim's observer stream equals
	// sim's after two adjustments. gsim stamps unbound events CPU -1
	// where sim leaves 0, and sim re-issues a Dispatch to the job that
	// was already running after each pass (stop-all-then-redispatch),
	// which gsim's affinity keeps silent and which is the whole
	// CtxSwitches gap. The workload is light enough that no job aborts:
	// DESIGN.md tabulates that and the other places the models diverge.
	mk := func(seed int64, shared bool) []*task.Task {
		out := make([]*task.Task, 8)
		for i := range out {
			u := rtime.Duration(80 + (int(seed)*37+i*53)%320)
			c := 6*u + rtime.Duration((int(seed)*11+i*97)%900)
			m, objs := 0, []int(nil)
			if shared {
				m, objs = 2+i%2, []int{i % 2}
			}
			out[i] = &task.Task{
				ID:       i,
				TUF:      tuf.MustStep(float64(1+(i*7+int(seed))%13), c),
				Arrival:  uam.Spec{L: 0, A: 1 + i%2, W: 2 * c},
				Segments: task.InterleavedSegments(u, m, objs),
			}
		}
		return out
	}
	for _, tc := range []struct {
		name   string
		mode   sim.Mode
		shared bool
	}{
		{"lockfree", sim.LockFree, false},
		{"lockfree-shared", sim.LockFree, true},
		{"lockbased", sim.LockBased, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var retries int64
			for seed := int64(1); seed <= 40; seed++ {
				newRUA := func() *rua.RUA {
					if tc.mode == sim.LockFree {
						return rua.NewLockFree()
					}
					return rua.NewLockBased()
				}
				var gs, us []trace.Event
				g, err := Run(Config{
					CPUs: 1, Tasks: mk(seed, tc.shared), Scheduler: newRUA(),
					Mode: tc.mode, R: 40, S: 50, Horizon: 20_000,
					ArrivalKind: uam.KindJittered, Seed: seed,
					Observer: func(ev trace.Event) {
						if ev.CPU == -1 {
							ev.CPU = 0
						}
						gs = append(gs, ev)
					},
				})
				if err != nil {
					t.Fatal(err)
				}
				var running trace.Event // last Dispatch still on the CPU
				redispatches := int64(0)
				u, err := sim.Run(sim.Config{
					Tasks: mk(seed, tc.shared), Scheduler: newRUA(),
					Mode: tc.mode, R: 40, S: 50, Horizon: 20_000,
					ArrivalKind: uam.KindJittered, Seed: seed,
					Observer: func(ev trace.Event) {
						same := running.Kind == trace.Dispatch && ev.Task == running.Task && ev.Seq == running.Seq
						switch ev.Kind {
						case trace.Dispatch:
							if same {
								redispatches++
								return
							}
							running = ev
						case trace.Complete, trace.AbortBegin, trace.Block, trace.Preempt:
							if same {
								running = trace.Event{}
							}
						}
						us = append(us, ev)
					},
				})
				if err != nil {
					t.Fatal(err)
				}
				if g.Completions == 0 || u.Aborts != 0 {
					t.Fatalf("seed %d: workload drifted: %d completions, %d aborts", seed, g.Completions, u.Aborts)
				}
				for i := range max(len(gs), len(us)) {
					if i >= len(gs) || i >= len(us) || gs[i] != us[i] {
						t.Fatalf("seed %d: streams diverge at event %d of %d/%d:\n gsim %v\n  sim %v",
							seed, i, len(gs), len(us), gs[min(i, len(gs)-1)], us[min(i, len(us)-1)])
					}
				}
				if g.Completions != u.Completions || g.Aborts != u.Aborts || g.ExecTime != u.ExecTime ||
					g.Retries != u.Retries || g.SchedOps != u.SchedOps || g.CtxSwitches+redispatches != u.CtxSwitches {
					t.Fatalf("seed %d: counters diverge:\n gsim %+v\n  sim %+v", seed, g, u)
				}
				retries += u.Retries
			}
			if tc.shared && retries == 0 {
				t.Fatal("shared-object workload never retried; the differential misses the retry path")
			}
		})
	}
}

func TestAccessTimeStamped(t *testing.T) {
	// Every lock-free commit closes one measured access (Result.Accesses,
	// the denominator of Fig 8's effective s), retries included in its
	// latency: the same commit path as the uniprocessor engine.
	mk := func() []*task.Task {
		var out []*task.Task
		for i := 0; i < 6; i++ {
			out = append(out, &task.Task{
				ID:       i,
				TUF:      tuf.MustStep(float64(i+1), 3000),
				Arrival:  uam.Spec{L: 0, A: 2, W: 3000},
				Segments: task.InterleavedSegments(300, 3, []int{i % 2}),
			})
		}
		return out
	}
	commits := int64(0)
	r, err := Run(Config{
		CPUs: 2, Tasks: mk(), Scheduler: rua.NewLockFree(),
		Mode: sim.LockFree, R: 40, S: 60, Horizon: 50_000,
		ArrivalKind: uam.KindJittered, Seed: 3,
		Observer: func(ev trace.Event) {
			if ev.Kind == trace.Commit {
				commits++
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if commits == 0 || r.Retries == 0 {
		t.Fatalf("workload too light: %d commits, %d retries", commits, r.Retries)
	}
	if r.Accesses != commits {
		t.Fatalf("Accesses = %d, want one per commit (%d)", r.Accesses, commits)
	}
	if min := rtime.Duration(r.Accesses) * 60; r.AccessTime < min {
		t.Fatalf("AccessTime = %v, below %d accesses × s", r.AccessTime, r.Accesses)
	}
}

func TestCommitTimeValidationConflict(t *testing.T) {
	// Two CPUs, same object, overlapping accesses: the loser validates at
	// commit time, retries once, and completes one access later.
	t0 := stepTask(0, 1, 1000, 20, 1, []int{0}) // C(10) A C(10)
	t1 := stepTask(1, 1, 2000, 20, 1, []int{0})
	r := staged(t, Config{
		CPUs: 2, Tasks: []*task.Task{t0, t1}, Scheduler: sched.EDF{},
		Mode: sim.LockFree, R: 20, S: 20, Horizon: 10_000,
	}, map[int][]rtime.Time{0: {0}, 1: {0}})
	j0, j1 := jobOf(r, 0, 0), jobOf(r, 1, 0)
	// Both enter the access at t=10 and reach commit at t=30; CPU0's T0
	// wins, T1 fails validation and re-runs the access 30-50, then
	// computes to 60.
	if j0.Completion != 40 {
		t.Fatalf("j0 completion = %v, want 40", j0.Completion)
	}
	if j0.Retries != 0 {
		t.Fatalf("winner retried: %d", j0.Retries)
	}
	if j1.Retries != 1 {
		t.Fatalf("loser retries = %d, want 1", j1.Retries)
	}
	if j1.Completion != 60 {
		t.Fatalf("j1 completion = %v, want 60", j1.Completion)
	}
	if r.Retries != 1 {
		t.Fatalf("total retries = %d", r.Retries)
	}
}

func TestParallelDisjointObjectsNoRetry(t *testing.T) {
	t0 := stepTask(0, 1, 1000, 20, 1, []int{0})
	t1 := stepTask(1, 1, 2000, 20, 1, []int{1})
	r := staged(t, Config{
		CPUs: 2, Tasks: []*task.Task{t0, t1}, Scheduler: sched.EDF{},
		Mode: sim.LockFree, R: 20, S: 20, Horizon: 10_000,
	}, map[int][]rtime.Time{0: {0}, 1: {0}})
	if r.Retries != 0 {
		t.Fatalf("disjoint objects retried: %d", r.Retries)
	}
	if jobOf(r, 0, 0).Completion != 40 || jobOf(r, 1, 0).Completion != 40 {
		t.Fatal("parallel disjoint jobs delayed")
	}
}

func TestLockBasedCrossCPUBlocking(t *testing.T) {
	// T0 on CPU0 holds the object; T1 on CPU1 blocks at its boundary and
	// resumes after the release — blocking across processors.
	t0 := stepTask(0, 1, 1000, 20, 1, []int{0})
	t1 := stepTask(1, 1, 2000, 20, 1, []int{0})
	r := staged(t, Config{
		CPUs: 2, Tasks: []*task.Task{t0, t1}, Scheduler: sched.EDF{},
		Mode: sim.LockBased, R: 20, S: 3, Horizon: 10_000,
	}, map[int][]rtime.Time{0: {0}, 1: {0}})
	j0, j1 := jobOf(r, 0, 0), jobOf(r, 1, 0)
	// Both compute 0-10 in parallel; T0 takes the lock (EDF ranks it
	// first at the simultaneous boundary), T1 blocks; T0's access 10-30,
	// unlock, T1's access 30-50, both finish compute 10 later.
	if j0.Completion != 40 {
		t.Fatalf("j0 completion = %v, want 40", j0.Completion)
	}
	if j1.Completion != 60 {
		t.Fatalf("j1 completion = %v, want 60", j1.Completion)
	}
	if j1.Blockings != 1 {
		t.Fatalf("j1 blockings = %d, want 1", j1.Blockings)
	}
}

func TestGlobalOverloadSpreads(t *testing.T) {
	mk := func() []*task.Task {
		var out []*task.Task
		for i := 0; i < 8; i++ {
			out = append(out, &task.Task{
				ID:       i,
				TUF:      tuf.MustStep(float64(i+1), 2000),
				Arrival:  uam.Spec{L: 0, A: 2, W: 2000},
				Segments: task.InterleavedSegments(500, 2, []int{i}),
			})
		}
		return out
	}
	run := func(cpus int) metrics.RunStats {
		r, err := Run(Config{
			CPUs: cpus, Tasks: mk(), Scheduler: rua.NewLockFree(),
			Mode: sim.LockFree, R: 150, S: 5, Horizon: 100_000,
			ArrivalKind: uam.KindJittered, Seed: 5,
		})
		if err != nil {
			t.Fatal(err)
		}
		return metrics.Analyze(r)
	}
	one, four := run(1), run(4)
	if one.AUR >= 0.9 {
		t.Fatalf("1 CPU not overloaded: %v", one.AUR)
	}
	if four.AUR <= one.AUR+0.1 {
		t.Fatalf("4 CPUs did not help: %v vs %v", four.AUR, one.AUR)
	}
}

func TestAbortWhenCriticalTimeExpires(t *testing.T) {
	hopeless := stepTask(0, 1, 100, 500, 0, nil)
	ok := stepTask(1, 1, 1000, 50, 0, nil)
	r := staged(t, Config{
		CPUs: 1, Tasks: []*task.Task{hopeless, ok}, Scheduler: sched.EDF{},
		Mode: sim.LockFree, R: 10, S: 3, Horizon: 5000,
	}, map[int][]rtime.Time{0: {0}, 1: {0}})
	if jobOf(r, 0, 0).State != task.Aborted {
		t.Fatal("hopeless job not aborted")
	}
	if jobOf(r, 1, 0).State != task.Completed {
		t.Fatal("feasible job lost")
	}
}

func TestAffinityPreserved(t *testing.T) {
	// Two long-running jobs on two CPUs; a third arrival that ranks below
	// them must not displace either (no needless migration/preemption).
	t0 := stepTask(0, 1, 2000, 500, 0, nil)
	t1 := stepTask(1, 1, 2100, 500, 0, nil)
	t2 := stepTask(2, 1, 5000, 100, 0, nil) // latest critical time
	r := staged(t, Config{
		CPUs: 2, Tasks: []*task.Task{t0, t1, t2}, Scheduler: sched.EDF{},
		Mode: sim.LockFree, R: 10, S: 3, Horizon: 10_000,
	}, map[int][]rtime.Time{0: {0}, 1: {0}, 2: {100}})
	j0, j1, j2 := jobOf(r, 0, 0), jobOf(r, 1, 0), jobOf(r, 2, 0)
	if j0.Preempts != 0 || j1.Preempts != 0 {
		t.Fatalf("running jobs displaced: %d, %d preempts", j0.Preempts, j1.Preempts)
	}
	if j0.Completion != 500 || j1.Completion != 500 {
		t.Fatalf("completions = %v, %v; want 500, 500", j0.Completion, j1.Completion)
	}
	// The latecomer waits for a CPU, then runs 500-600.
	if j2.Completion != 600 {
		t.Fatalf("j2 completion = %v, want 600", j2.Completion)
	}
}

func TestMigrationAcrossCPUs(t *testing.T) {
	// j2 (middle urgency) starts on a CPU, is displaced by a more urgent
	// arrival, and resumes later — global scheduling allows it to land on
	// whichever CPU frees first.
	t0 := stepTask(0, 1, 3000, 400, 0, nil)
	t1 := stepTask(1, 1, 3100, 400, 0, nil)
	t2 := stepTask(2, 1, 900, 200, 0, nil) // urgent latecomer
	r := staged(t, Config{
		CPUs: 2, Tasks: []*task.Task{t0, t1, t2}, Scheduler: sched.EDF{},
		Mode: sim.LockFree, R: 10, S: 3, Horizon: 10_000,
	}, map[int][]rtime.Time{0: {0}, 1: {0}, 2: {100}})
	for _, j := range r.Jobs {
		if j.State != task.Completed {
			t.Fatalf("%s = %v", j.Name(), j.State)
		}
	}
	j2 := jobOf(r, 2, 0)
	if j2.Completion != 300 { // preempts one of the others at 100
		t.Fatalf("urgent completion = %v, want 300", j2.Completion)
	}
	// Exactly one of the background jobs was displaced and finishes late.
	j0, j1 := jobOf(r, 0, 0), jobOf(r, 1, 0)
	late := j0.Completion
	if j1.Completion > late {
		late = j1.Completion
	}
	if late != 600 { // 400 own + 200 displaced
		t.Fatalf("displaced completion = %v, want 600", late)
	}
}
