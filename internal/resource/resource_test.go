package resource

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/rtime"
	"repro/internal/task"
	"repro/internal/tuf"
	"repro/internal/uam"
)

func mkJob(id int) *task.Job {
	t := &task.Task{
		ID:      id,
		TUF:     tuf.MustStep(1, 1000),
		Arrival: uam.Periodic(2000),
		Segments: []task.Segment{
			{Kind: task.Compute, D: 10},
		},
	}
	return task.NewJob(t, 0, 0)
}

func TestAcquireRelease(t *testing.T) {
	m := NewMap()
	j := mkJob(1)
	granted, holder, err := m.TryAcquire(j, 7)
	if err != nil || !granted || holder != nil {
		t.Fatalf("TryAcquire = (%v,%v,%v)", granted, holder, err)
	}
	if m.Owner(7) != j {
		t.Fatal("owner not recorded")
	}
	if hs := m.Held(j); len(hs) != 1 || hs[0] != 7 {
		t.Fatalf("Held = %v", hs)
	}
	if err := m.Release(j, 7); err != nil {
		t.Fatalf("Release: %v", err)
	}
	if m.Owner(7) != nil {
		t.Fatal("owner not cleared")
	}
	if m.Acquisitions != 1 {
		t.Fatalf("Acquisitions = %d", m.Acquisitions)
	}
}

func TestContention(t *testing.T) {
	m := NewMap()
	j1, j2 := mkJob(1), mkJob(2)
	m.TryAcquire(j1, 7)
	granted, holder, err := m.TryAcquire(j2, 7)
	if err != nil || granted || holder != j1 {
		t.Fatalf("TryAcquire contended = (%v,%v,%v)", granted, holder, err)
	}
	if obj, ok := m.WaitingFor(j2); !ok || obj != 7 {
		t.Fatalf("WaitingFor = (%d,%v)", obj, ok)
	}
	if j2.Blockings != 1 {
		t.Fatalf("Blockings = %d", j2.Blockings)
	}
	if m.Contentions != 1 {
		t.Fatalf("Contentions = %d", m.Contentions)
	}
}

func TestNestedAcquireRejected(t *testing.T) {
	m := NewMap()
	j := mkJob(1)
	m.TryAcquire(j, 7)
	_, _, err := m.TryAcquire(j, 7)
	if !errors.Is(err, ErrState) {
		t.Fatalf("re-acquire err = %v", err)
	}
}

func TestReleaseNotHeld(t *testing.T) {
	m := NewMap()
	j1, j2 := mkJob(1), mkJob(2)
	m.TryAcquire(j1, 7)
	if err := m.Release(j2, 7); !errors.Is(err, ErrState) {
		t.Fatalf("foreign release err = %v", err)
	}
	if err := m.Release(j1, 99); !errors.Is(err, ErrState) {
		t.Fatalf("unheld release err = %v", err)
	}
}

func TestReleaseAll(t *testing.T) {
	m := NewMap()
	j := mkJob(1)
	m.TryAcquire(j, 1)
	m.TryAcquire(j, 2) // different objects: legal (sequential sections)
	w := mkJob(2)
	m.TryAcquire(w, 1)
	m.ReleaseAll(j)
	if m.Owner(1) != nil || m.Owner(2) != nil {
		t.Fatal("objects still owned after ReleaseAll")
	}
	if len(m.Held(j)) != 0 {
		t.Fatal("held list not cleared")
	}
}

func TestDependencyChainLinear(t *testing.T) {
	// Paper §3.1 example: T1 waits on R1 held by T2; T2 waits on R2 held
	// by T3; chain(T1) = ⟨T3, T2, T1⟩.
	m := NewMap()
	t1, t2, t3 := mkJob(1), mkJob(2), mkJob(3)
	m.TryAcquire(t3, 2) // T3 holds R2
	m.TryAcquire(t2, 1) // T2 holds R1
	m.TryAcquire(t2, 2) // T2 waits on R2
	m.TryAcquire(t1, 1) // T1 waits on R1
	chain, cycle := m.DependencyChain(t1)
	if cycle {
		t.Fatal("unexpected cycle")
	}
	want := []*task.Job{t3, t2, t1}
	if len(chain) != 3 {
		t.Fatalf("chain len = %d", len(chain))
	}
	for i := range want {
		if chain[i] != want[i] {
			t.Fatalf("chain[%d] = %s, want %s", i, chain[i].Name(), want[i].Name())
		}
	}
	// T2's chain is ⟨T3, T2⟩; T3's chain is ⟨T3⟩.
	c2, _ := m.DependencyChain(t2)
	if len(c2) != 2 || c2[0] != t3 || c2[1] != t2 {
		t.Fatalf("chain(T2) wrong")
	}
	c3, _ := m.DependencyChain(t3)
	if len(c3) != 1 || c3[0] != t3 {
		t.Fatalf("chain(T3) wrong")
	}
}

func TestDependencyChainCycle(t *testing.T) {
	m := NewMap()
	t1, t2 := mkJob(1), mkJob(2)
	m.TryAcquire(t1, 1)
	m.TryAcquire(t2, 2)
	m.TryAcquire(t1, 2) // T1 waits on R2 (held by T2)
	m.TryAcquire(t2, 1) // T2 waits on R1 (held by T1): deadlock
	_, cycle := m.DependencyChain(t1)
	if !cycle {
		t.Fatal("cycle not detected")
	}
}

func TestDependencyChainBrokenLink(t *testing.T) {
	m := NewMap()
	t1, t2 := mkJob(1), mkJob(2)
	m.TryAcquire(t2, 1)
	m.TryAcquire(t1, 1) // waits
	m.Release(t2, 1)    // released, but t1's wait record remains
	chain, cycle := m.DependencyChain(t1)
	if cycle || len(chain) != 1 || chain[0] != t1 {
		t.Fatalf("chain after release = %v (cycle=%v)", chain, cycle)
	}
}

func TestForget(t *testing.T) {
	m := NewMap()
	t1, t2 := mkJob(1), mkJob(2)
	m.TryAcquire(t2, 1)
	m.TryAcquire(t1, 1)
	m.Forget(t1)
	if _, ok := m.WaitingFor(t1); ok {
		t.Fatal("wait record survived Forget")
	}
}

func TestCommitTracking(t *testing.T) {
	m := NewMap()
	if m.CommittedSince(3, 0) {
		t.Fatal("commit reported on untouched object")
	}
	m.RecordCommit(3, rtime.Time(100))
	if !m.CommittedSince(3, 100) {
		t.Fatal("commit at t not visible for since=t")
	}
	if !m.CommittedSince(3, 50) {
		t.Fatal("commit after since not visible")
	}
	if m.CommittedSince(3, 101) {
		t.Fatal("stale commit visible")
	}
	if m.Commits != 1 {
		t.Fatalf("Commits = %d", m.Commits)
	}
}

// TestAppendDependencyChainTable pins the chain walk's exact output —
// members, head→tail order, and the cycle flag — over the shapes the
// cycle check must get right. Each case appends behind a prefix that
// already holds the walked jobs, so only the chain collected by this
// call may close a cycle.
func TestAppendDependencyChainTable(t *testing.T) {
	for _, tc := range []struct {
		name string
		// build installs the lock state on m over jobs j[0..5] and
		// returns the job whose chain is walked.
		build     func(m *Map, j []*task.Job) *task.Job
		want      []int // chain as indices into j, head first
		wantCycle bool
	}{
		{
			name:  "no wait",
			build: func(m *Map, j []*task.Job) *task.Job { return j[0] },
			want:  []int{0},
		},
		{
			// A wait record naming an object the waiter holds itself.
			// TryAcquire refuses to create one, so the record is
			// installed directly: the walk must still terminate.
			name: "self-wait",
			build: func(m *Map, j []*task.Job) *task.Job {
				m.TryAcquire(j[0], 1)
				j[0].WaitObj = 1 + 1
				return j[0]
			},
			want:      []int{0},
			wantCycle: true,
		},
		{
			name: "2-cycle",
			build: func(m *Map, j []*task.Job) *task.Job {
				m.TryAcquire(j[0], 1)
				m.TryAcquire(j[1], 2)
				m.TryAcquire(j[0], 2) // j0 waits on j1
				m.TryAcquire(j[1], 1) // j1 waits on j0
				return j[0]
			},
			want:      []int{1, 0},
			wantCycle: true,
		},
		{
			// j4 → j3 → (j0 → j1 → j2 → j0): the walk enters the cycle
			// through a two-job tail and stops at the first repeat, j0.
			name: "3-cycle behind a tail",
			build: func(m *Map, j []*task.Job) *task.Job {
				m.TryAcquire(j[0], 0)
				m.TryAcquire(j[1], 1)
				m.TryAcquire(j[2], 2)
				m.TryAcquire(j[3], 3)
				m.TryAcquire(j[0], 1) // j0 waits on j1
				m.TryAcquire(j[1], 2) // j1 waits on j2
				m.TryAcquire(j[2], 0) // j2 waits on j0
				m.TryAcquire(j[3], 0) // j3 waits on j0
				m.TryAcquire(j[4], 3) // j4 waits on j3
				return j[4]
			},
			want:      []int{2, 1, 0, 3, 4},
			wantCycle: true,
		},
		{
			// j2 waits on j1, which waits on an object released since:
			// the chain ends at j1.
			name: "ends at a released object",
			build: func(m *Map, j []*task.Job) *task.Job {
				m.TryAcquire(j[0], 0)
				m.TryAcquire(j[1], 1)
				m.TryAcquire(j[1], 0) // j1 waits on j0
				m.TryAcquire(j[2], 1) // j2 waits on j1
				if err := m.Release(j[0], 0); err != nil {
					t.Fatal(err)
				}
				return j[2]
			},
			want: []int{1, 2},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := NewMap()
			j := make([]*task.Job, 6)
			for i := range j {
				j[i] = mkJob(i)
			}
			start := tc.build(m, j)
			prefix := []*task.Job{j[5], j[0], j[1], j[2], j[3], j[4]}
			dst := append([]*task.Job(nil), prefix...)
			got, cycle := m.AppendDependencyChain(dst, start)
			for i := range prefix {
				if got[i] != prefix[i] {
					t.Fatalf("prefix[%d] overwritten by %s", i, got[i].Name())
				}
			}
			chain := got[len(prefix):]
			if cycle != tc.wantCycle {
				t.Errorf("cycle = %v, want %v", cycle, tc.wantCycle)
			}
			if len(chain) != len(tc.want) {
				t.Fatalf("chain has %d members, want %d", len(chain), len(tc.want))
			}
			for i, w := range tc.want {
				if chain[i] != j[w] {
					t.Errorf("chain[%d] = %s, want %s", i, chain[i].Name(), j[w].Name())
				}
			}
			// DependencyChain is the same walk into a fresh slice.
			fresh, fc := m.DependencyChain(start)
			if fc != cycle || len(fresh) != len(chain) {
				t.Fatalf("DependencyChain = %d members (cycle %v), AppendDependencyChain %d (cycle %v)",
					len(fresh), fc, len(chain), cycle)
			}
			for i := range fresh {
				if fresh[i] != chain[i] {
					t.Fatalf("DependencyChain[%d] = %s, want %s", i, fresh[i].Name(), chain[i].Name())
				}
			}
		})
	}
}

// TestOwnerOutOfRange covers object ids the owners slice has never grown
// to, and the ids TryAcquire refuses.
func TestOwnerOutOfRange(t *testing.T) {
	m := NewMap()
	if m.Owner(-1) != nil || m.Owner(0) != nil || m.Owner(1<<20) != nil {
		t.Fatal("owner reported for an untouched object")
	}
	j := mkJob(1)
	if _, _, err := m.TryAcquire(j, -1); !errors.Is(err, ErrState) {
		t.Fatalf("TryAcquire(-1) err = %v, want ErrState", err)
	}
	if granted, _, err := m.TryAcquire(j, 40); err != nil || !granted || m.Owner(40) != j {
		t.Fatalf("TryAcquire(40) = (%v, %v), owner %v", granted, err, m.Owner(40))
	}
	if m.Owner(39) != nil || m.Owner(41) != nil {
		t.Fatal("growing owners created a phantom holder")
	}
}

// TestAppendDependencyChainRandom holds the chain walk to the plain
// definition — follow waits until a holder repeats, using a set of the
// members seen — on random wait graphs with long tails, cycles of every
// length, and released objects.
func TestAppendDependencyChainRandom(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(40)
		m := NewMap()
		jobs := make([]*task.Job, n)
		for i := range jobs {
			jobs[i] = mkJob(i)
			m.TryAcquire(jobs[i], i) // job i holds object i
		}
		for i := range jobs {
			switch k := rng.Intn(n + 2); {
			case k < n && k != i:
				m.TryAcquire(jobs[i], k) // i waits on k's object
			case k == i:
				jobs[i].WaitObj = int32(i) + 1 // self-wait
			}
		}
		for i := range jobs {
			if rng.Intn(8) == 0 {
				if err := m.Release(jobs[i], i); err != nil {
					t.Fatal(err)
				}
			}
		}

		arena := []*task.Job{jobs[0]}
		for _, j := range jobs {
			// Reference: the set-based walk, tail-first, then reversed.
			var want []*task.Job
			seen := map[*task.Job]bool{j: true}
			wantCycle := false
			want = append(want, j)
			for cur := j; ; {
				obj, ok := m.WaitingFor(cur)
				if !ok {
					break
				}
				h := m.Owner(obj)
				if h == nil {
					break
				}
				if seen[h] {
					wantCycle = true
					break
				}
				seen[h] = true
				want = append(want, h)
				cur = h
			}
			slices.Reverse(want)

			start := len(arena)
			var cycle bool
			arena, cycle = m.AppendDependencyChain(arena, j)
			got := arena[start:]
			if cycle != wantCycle || !slices.Equal(got, want) {
				t.Fatalf("seed %d, chain(%s): got %d members (cycle %v), want %d (cycle %v)",
					seed, j.Name(), len(got), cycle, len(want), wantCycle)
			}
		}
	}
}
