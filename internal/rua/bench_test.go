package rua

// Benchmarks holding the incremental feasibility tree against the
// retained slice reference at scale: one selectFull-shaped pass (insert
// every live job's chain, feasibility check after each insertion) over
// n ∈ 10²–10⁴ live jobs. The slice reference pays O(n) per insert
// (memmove) and O(n) per feasibility walk — Θ(n²) per pass — while the
// tree pays O(log n) for both; the ratio at n=10⁴ is the PR's headline
// speedup for the scheduler side. Run:
//
//	go test -run NONE -bench BenchmarkFeas -benchmem ./internal/rua/
//
// BenchmarkSelectPaperSize times whole Select passes at the paper's
// size instead (n ≈ 10 live jobs, as in the sweep workload), where the
// per-pass bookkeeping, not the schedule structure, dominates.
import (
	"fmt"
	"testing"

	"repro/internal/resource"
	"repro/internal/rtime"
	"repro/internal/sched"
	"repro/internal/task"
)

// benchJobs builds n single-job chains with clustered critical times
// (forcing effC ties like the scale workload's clusters do).
func benchJobs(n int) [][]*task.Job {
	chains := make([][]*task.Job, n)
	for i := range chains {
		// Critical times scale with n so the full pass stays feasible
		// (Σ comp < every C), clustered into 37 groups to force effC ties.
		c := rtime.Duration(100*n + 1000*(i%37))
		comp := rtime.Duration(5 + i%16)
		chains[i] = []*task.Job{mkJob(i, 1+float64(i%5), c, comp, 0)}
	}
	return chains
}

func BenchmarkFeasTreePass(b *testing.B) {
	const acc = rtime.Duration(10)
	for _, n := range []int{100, 1000, 10_000} {
		chains := benchJobs(n)
		live := make([]*task.Job, n)
		for i, ch := range chains {
			live[i] = ch[0]
		}
		slotted(live)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var ops int64
			ft := &feasTree{ops: &ops}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ft.reset(live)
				for _, ch := range chains {
					ft.insertChain(ch, acc)
					if !ft.feasible(0) {
						b.Fatal("bench world must stay feasible")
					}
					ft.journal = ft.journal[:0]
				}
			}
		})
	}
}

func BenchmarkFeasSliceRefPass(b *testing.B) {
	const acc = rtime.Duration(10)
	for _, n := range []int{100, 1000, 10_000} {
		chains := benchJobs(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var ops int64
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s := &schedule{ops: &ops}
				for _, ch := range chains {
					s.insertChain(ch)
					if !s.feasible(0, acc) {
						b.Fatal("bench world must stay feasible")
					}
					s.journal = s.journal[:0]
				}
			}
		})
	}
}

// paperWorld builds n live jobs in which every job i with i%3 != 0 waits
// on the object held by job i−1, so a lock-based pass walks chains of up
// to three members (no deadlock). Critical times spread the jobs so part
// of each pass is infeasible, as under the paper's overloads.
func paperWorld(n int, lockBased bool) sched.World {
	res := resource.NewMap()
	jobs := make([]*task.Job, n)
	for i := range jobs {
		jobs[i] = mkJob(i, float64(1+i%5), rtime.Duration(200+40*i), rtime.Duration(20+i%7), 0)
		if _, _, err := res.TryAcquire(jobs[i], i); err != nil {
			panic(err)
		}
	}
	for i := 1; i < n; i++ {
		if i%3 != 0 {
			if granted, _, err := res.TryAcquire(jobs[i], i-1); err != nil || granted {
				panic(fmt.Sprintf("job %d must wait on object %d", i, i-1))
			}
			jobs[i].State = task.Blocked
		}
	}
	return world(0, res, lockBased, jobs...)
}

func BenchmarkSelectPaperSize(b *testing.B) {
	for _, n := range []int{10, 40} {
		for _, mode := range []struct {
			name string
			rua  func() *RUA
		}{
			{"lockfree", NewLockFree},
			{"lockbased", NewLockBased},
		} {
			b.Run(fmt.Sprintf("%s/n=%d", mode.name, n), func(b *testing.B) {
				r := mode.rua()
				w := paperWorld(n, !r.lockFree)
				r.Select(w)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					r.Select(w)
				}
			})
		}
	}
}
