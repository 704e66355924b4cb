package experiment

import (
	"fmt"

	"repro/internal/gsim"
	"repro/internal/metrics"
	"repro/internal/multi"
	"repro/internal/rua"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/uam"
)

// scaleCPUs is the processor count the multiprocessor engines use in the
// scaling sweep.
const scaleCPUs = 4

// scaleNs returns the task-count sweep: the quick profile stops at 10³
// (unit-test budget), the full profile covers the PR's 10²–10⁵ range.
func scaleNs(p Profile) []int {
	if p.Name == Quick.Name {
		return []int{100, 1000}
	}
	return []int{100, 1000, 10_000, 100_000}
}

// Scale sweeps the engines across task-set sizes n ∈ 10²–10⁵ on the
// clustered workload of ScaleWorkload: every (engine × sharing mode)
// combination runs the same n-task set for one seed, and the table
// reports deterministic outcome counters. Wall-clock belongs to the
// benchmark (perfbench's scale workload, which also pins the n=10⁴
// counters exactly), not to the table: counters are byte-identical
// across machines, seconds are not.
//
// The sweep holds total load at AL ≈ 0.4 while n grows, so the live set
// stays paper-sized and the pressure lands where scaling hurts: the
// event queue (every queued arrival — the timing wheel's O(1) schedule
// per event vs the old heap's O(log n)) and the per-pass scratch
// (zero-alloc steady state). AUR/CMR must stay high at every n — a
// scheduler that only works at n=10 would show degradation here.
func Scale(p Profile) ([]*Table, error) {
	t := &Table{
		ID:    "scale",
		Title: "engine scaling over task-set size (uni/partitioned/global × lock-free/lock-based)",
		Note: fmt.Sprintf("clustered workload: %d-task clusters over %d private objects each, AL≈0.4, %d CPUs for multi/global, seed %d",
			PaperTasks, ScaleObjectsPerCluster, scaleCPUs, Quick.Seeds[0]),
		Columns: []string{"n", "engine", "mode", "released", "completed", "AUR", "CMR", "retries"},
	}
	ns := scaleNs(p)
	// The horizon multiplier is capped at the quick profile's: event count
	// already scales linearly with n, and the sweep's point is breadth in
	// n, not depth in virtual time.
	hp := p
	hp.HorizonMult = minInt(p.HorizonMult, Quick.HorizonMult)

	templates := make([][]*task.Task, len(ns))
	for i, n := range ns {
		tasks, err := ScaleWorkload(n, 0.4, StepTUFs)
		if err != nil {
			return nil, err
		}
		templates[i] = tasks
	}

	type combo struct {
		engine string
		mode   sim.Mode
	}
	combos := []combo{
		{"uni", sim.LockFree}, {"uni", sim.LockBased},
		{"multi", sim.LockFree}, {"multi", sim.LockBased},
		{"global", sim.LockFree}, {"global", sim.LockBased},
	}
	seed := Quick.Seeds[0]
	cells, err := runner.Map(p.Jobs, len(ns)*len(combos), func(i int) (metrics.RunStats, error) {
		tasks := task.CloneAll(templates[i/len(combos)])
		cb := combos[i%len(combos)]
		horizon := horizonFor(tasks, hp)
		newSched := func() *rua.RUA {
			if cb.mode == sim.LockFree {
				return rua.NewLockFree()
			}
			return rua.NewLockBased()
		}
		switch cb.engine {
		case "uni":
			res, err := sim.Run(sim.Config{
				Tasks: tasks, Scheduler: newSched(), Mode: cb.mode,
				R: DefaultR, S: DefaultS, OpCost: 0,
				Horizon: horizon, ArrivalKind: uam.KindJittered, Seed: seed,
				ConservativeRetry: true,
			})
			if err != nil {
				return metrics.RunStats{}, err
			}
			return metrics.Analyze(res), nil
		case "multi":
			res, err := multi.Run(multi.Config{
				CPUs: scaleCPUs, Tasks: tasks, Mode: cb.mode,
				R: DefaultR, S: DefaultS, OpCost: 0,
				Horizon: horizon, ArrivalKind: uam.KindJittered, Seed: seed,
				ConservativeRetry: true,
			})
			if err != nil {
				return metrics.RunStats{}, err
			}
			return res.Stats, nil
		default: // global
			res, err := gsim.Run(gsim.Config{
				CPUs: scaleCPUs, Tasks: tasks, Scheduler: newSched(), Mode: cb.mode,
				R: DefaultR, S: DefaultS, OpCost: 0,
				Horizon: horizon, ArrivalKind: uam.KindJittered, Seed: seed,
			})
			if err != nil {
				return metrics.RunStats{}, err
			}
			return metrics.Analyze(res), nil
		}
	})
	if err != nil {
		return nil, err
	}
	for ni, n := range ns {
		for ci, cb := range combos {
			st := cells[ni*len(combos)+ci]
			mode := "lockfree"
			if cb.mode == sim.LockBased {
				mode = "lockbased"
			}
			t.AddRow(n, cb.engine, mode, st.Released, st.Completed,
				fmt.Sprintf("%.3f", st.AUR), fmt.Sprintf("%.3f", st.CMR), st.Retries)
		}
	}
	return []*Table{t}, nil
}
