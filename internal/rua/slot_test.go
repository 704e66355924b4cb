package rua

// Tests of the per-pass slot scheme: a job's Slot stamp is only trusted
// after live[slot] == j, so stamps left behind by other passes, other
// instances, or chain members outside the live slice must never steer a
// pass.

import (
	"testing"

	"repro/internal/resource"
	"repro/internal/rtime"
	"repro/internal/sched"
	"repro/internal/task"
)

// lockedJobs builds eight jobs J0..J7 and a resource map in which
//
//	J2 → J1 → J0        a three-member chain (J2 waits on J1, J1 on J0)
//	J3 ⇄ J4, J5 → J3    a deadlocked pair and a waiter behind it
//	J7 → J6             J7 waits on J6, which worlds leave out of Jobs
//
// so a lock-based pass walks multi-member chains, resolves one deadlock,
// and inserts a chain member that has no slot.
func lockedJobs(tb testing.TB) ([]*task.Job, *resource.Map) {
	tb.Helper()
	jobs := make([]*task.Job, 8)
	for i := range jobs {
		jobs[i] = mkJob(i, float64(1+i%4), rtime.Duration(400+60*i), rtime.Duration(20+5*(i%3)), 0)
	}
	res := resource.NewMap()
	for _, hw := range []struct {
		job, obj int
		granted  bool
	}{
		{0, 0, true}, {1, 1, true}, {3, 3, true}, {4, 4, true}, {6, 6, true},
		{1, 0, false}, // J1 waits on J0
		{2, 1, false}, // J2 waits on J1
		{3, 4, false}, // J3 waits on J4
		{4, 3, false}, // J4 waits on J3: deadlock
		{5, 3, false}, // J5 waits on J3
		{7, 6, false}, // J7 waits on J6
	} {
		granted, _, err := res.TryAcquire(jobs[hw.job], hw.obj)
		if err != nil || granted != hw.granted {
			tb.Fatalf("J%d on object %d: granted=%v err=%v, want granted=%v", hw.job, hw.obj, granted, err, hw.granted)
		}
		if !granted {
			jobs[hw.job].State = task.Blocked
		}
	}
	return jobs, res
}

func pick(jobs []*task.Job, idx ...int) []*task.Job {
	out := make([]*task.Job, len(idx))
	for i, k := range idx {
		out[i] = jobs[k]
	}
	return out
}

func sameDecision(a, b sched.Decision) bool {
	if a.Run != b.Run || a.Ops != b.Ops || len(a.Abort) != len(b.Abort) {
		return false
	}
	for i := range a.Abort {
		if a.Abort[i] != b.Abort[i] {
			return false
		}
	}
	return true
}

func decisionString(d sched.Decision) string {
	s := "run=<nil>"
	if d.Run != nil {
		s = "run=" + d.Run.Name()
	}
	s += " abort=["
	for i, j := range d.Abort {
		if i > 0 {
			s += " "
		}
		s += j.Name()
	}
	return s + "]"
}

// TestSelectIgnoresStaleSlots interleaves a lock-free and a lock-based
// instance over overlapping job sets, including a world in which a chain
// member has been aborted (not live, carrying the slot of an earlier
// pass) and one whose chain member is not listed at all. Before each
// pass every job outside the pass's live slice gets an in-range stamp
// naming some live job's slot; the decision must still equal a fresh
// instance's on the same world with no stamp in range.
func TestSelectIgnoresStaleSlots(t *testing.T) {
	jobs, res := lockedJobs(t)
	lf, lb := NewLockFree(), NewLockBased()
	type step struct {
		name  string
		rua   *RUA
		fresh func() *RUA
		jobs  []int
		abort int // job to put into Aborting before the pass, -1 for none
	}
	steps := []step{
		{"lockbased all but J6", lb, NewLockBased, []int{0, 1, 2, 3, 4, 5, 7}, -1},
		{"lockfree J2..J7", lf, NewLockFree, []int{2, 3, 4, 5, 6, 7}, -1},
		{"lockbased J1..J7", lb, NewLockBased, []int{1, 2, 3, 4, 5, 7}, -1},
		{"lockfree J0..J5", lf, NewLockFree, []int{0, 1, 2, 3, 4, 5}, -1},
		{"lockbased with J0 aborting", lb, NewLockBased, []int{0, 1, 2, 3, 4, 5, 7}, 0},
		{"lockfree with J0 aborting", lf, NewLockFree, []int{0, 1, 2, 3, 4, 5, 6, 7}, 0},
		{"lockbased with J3 aborting", lb, NewLockBased, []int{1, 2, 3, 4, 5, 7}, 3},
		{"lockbased again", lb, NewLockBased, []int{0, 1, 2, 4, 5, 7}, 3},
	}
	for _, st := range steps {
		if st.abort >= 0 {
			jobs[st.abort].State = task.Aborting
		}
		w := world(100, res, !st.rua.lockFree, pick(jobs, st.jobs...)...)

		// Adversarial stamps: every job this pass will not stamp points
		// at a slot the pass does use.
		nLive := 0
		for _, j := range w.Jobs {
			if !j.Done() && j.State != task.Aborting {
				nLive++
			}
		}
		for i, j := range jobs {
			j.Slot = int32(i % nLive)
		}
		got := st.rua.Select(w)

		for _, j := range jobs {
			j.Slot = 1 << 30
		}
		want := st.fresh().Select(w)
		if !sameDecision(got, want) {
			t.Fatalf("%s: reused instance decided %s ops=%d, fresh instance %s ops=%d",
				st.name, decisionString(got), got.Ops, decisionString(want), want.Ops)
		}
	}
}
