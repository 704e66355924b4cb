// Package resource models the shared-object state the schedulers and the
// simulator reason about: which job holds which lock (lock-based mode),
// who is waiting on what (the raw material of RUA's dependency chains,
// §3.1), and — in lock-free mode — which commits have landed on which
// object (the raw material of retry accounting, §4).
//
// The simulator runs on one goroutine, so this package is deliberately
// unsynchronized; the *real* concurrent objects live in internal/lockfree
// and internal/lockobj.
package resource

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/rtime"
	"repro/internal/task"
)

// ErrState reports an impossible lock-state transition — a simulator bug
// if it ever surfaces.
var ErrState = errors.New("resource: inconsistent state")

// Map tracks the lock and access state of all shared objects.
//
// The state RUA's dependency-chain walk reads is kept hash-free: lock
// holders sit in a slice indexed by object id (ids are small and dense,
// and never negative — task.Validate rejects that), and each job carries
// its own wait record in task.Job.WaitObj. A job is therefore tracked by
// at most one Map, which holds for every engine: each owns its jobs and
// its Map.
type Map struct {
	owners []*task.Job         // object id → holder (lock-based), nil when free
	held   map[*task.Job][]int // holder → objects it holds (LIFO of acquisition)

	// lastCommit records, per object, the virtual time of the most recent
	// committed lock-free access. Conflict-precise retry accounting
	// compares a preempted job's access start against this.
	lastCommit map[int]rtime.Time

	// Counters for experiment reporting.
	Acquisitions int64
	Contentions  int64
	Commits      int64
}

// NewMap returns an empty resource map.
func NewMap() *Map {
	return &Map{
		held:       map[*task.Job][]int{},
		lastCommit: map[int]rtime.Time{},
	}
}

// Owner returns the job holding obj, or nil.
func (m *Map) Owner(obj int) *task.Job {
	if uint(obj) >= uint(len(m.owners)) {
		return nil
	}
	return m.owners[obj]
}

// WaitingFor returns the object j is waiting on, if any.
func (m *Map) WaitingFor(j *task.Job) (obj int, ok bool) {
	if j.WaitObj == 0 {
		return 0, false
	}
	return int(j.WaitObj) - 1, true
}

// Held returns the objects j currently holds, in acquisition order.
func (m *Map) Held(j *task.Job) []int { return m.held[j] }

// TryAcquire attempts to take obj for j. If obj is free (or already held
// by j, which the no-nesting model forbids and therefore rejects), the
// lock is granted. Otherwise j is recorded as waiting and the holder is
// returned.
func (m *Map) TryAcquire(j *task.Job, obj int) (granted bool, holder *task.Job, err error) {
	if obj < 0 || obj >= math.MaxInt32 {
		//rtlint:ignore noalloc failure path: impossible-state diagnostic kills the run
		return false, nil, fmt.Errorf("%w: %s acquiring object id %d out of range", ErrState, j.Name(), obj)
	}
	if cur := m.Owner(obj); cur != nil {
		if cur == j {
			//rtlint:ignore noalloc failure path: impossible-state diagnostic kills the run
			return false, nil, fmt.Errorf("%w: %s re-acquiring object %d it already holds (nested sections are excluded)", ErrState, j.Name(), obj)
		}
		j.WaitObj = int32(obj) + 1
		m.Contentions++
		j.Blockings++
		return false, cur, nil
	}
	if obj >= len(m.owners) {
		//rtlint:ignore noalloc bounded by object count; reaches steady capacity at warm-up
		m.owners = append(m.owners, make([]*task.Job, obj+1-len(m.owners))...)
	}
	m.owners[obj] = j
	//rtlint:ignore noalloc bounded by objects a job holds; reaches steady capacity at warm-up
	m.held[j] = append(m.held[j], obj)
	j.WaitObj = 0
	m.Acquisitions++
	return true, nil, nil
}

// Release frees obj, which must be held by j.
func (m *Map) Release(j *task.Job, obj int) error {
	if m.Owner(obj) != j {
		//rtlint:ignore noalloc failure path: impossible-state diagnostic kills the run
		return fmt.Errorf("%w: %s releasing object %d it does not hold", ErrState, j.Name(), obj)
	}
	m.owners[obj] = nil
	hs := m.held[j]
	for i := len(hs) - 1; i >= 0; i-- {
		if hs[i] == obj {
			//rtlint:ignore noalloc copy-down within the same backing array; never grows
			m.held[j] = append(hs[:i], hs[i+1:]...)
			break
		}
	}
	if len(m.held[j]) == 0 {
		delete(m.held, j)
	}
	return nil
}

// ReleaseAll frees everything j holds and clears its wait record — used
// when a job's abort handler finishes (the handler rolls held resources
// back to safe states, §3.5).
func (m *Map) ReleaseAll(j *task.Job) {
	// Ranging the held slice directly is safe: clearing owners touches
	// only m.owners, and the held entry is dropped after the loop — the
	// old per-call defensive copy was the last per-event allocation on
	// the abort path.
	for _, obj := range m.held[j] {
		m.owners[obj] = nil
	}
	delete(m.held, j)
	j.WaitObj = 0
}

// Forget drops any wait record for j (e.g. the job got the CPU back and
// will re-attempt the acquisition as a fresh scheduling decision).
func (m *Map) Forget(j *task.Job) { j.WaitObj = 0 }

// RecordCommit notes that a lock-free access to obj committed at t.
func (m *Map) RecordCommit(obj int, t rtime.Time) {
	//rtlint:ignore noalloc bounded by object count; buckets reach steady capacity at warm-up
	m.lastCommit[obj] = t
	m.Commits++
}

// CommittedSince reports whether any lock-free access to obj committed at
// or after t.
func (m *Map) CommittedSince(obj int, t rtime.Time) bool {
	c, ok := m.lastCommit[obj]
	return ok && c >= t
}

// CommittedAfter reports whether any lock-free access to obj committed
// STRICTLY after t. Commit-time validation in parallel execution must use
// the strict form: a commit at exactly the instant a fresh attempt began
// is ordered before it, and counting it would retry forever when two
// processors interleave at the same tick.
func (m *Map) CommittedAfter(obj int, t rtime.Time) bool {
	c, ok := m.lastCommit[obj]
	return ok && c > t
}

// DependencyChain computes j's dependency chain (§3.1): the sequence
// ⟨T_k, …, T_2, J⟩ obtained by following "waiting-for → holder" links,
// head first (the job that must execute first) and ending with j itself.
// If the links form a cycle — only possible with nested critical sections
// — the second return is true and the returned chain is the cycle
// participants up to the repeat, which the deadlock resolver inspects.
func (m *Map) DependencyChain(j *task.Job) (chain []*task.Job, cycle bool) {
	return m.AppendDependencyChain(nil, j)
}

// AppendDependencyChain is DependencyChain without the per-call
// allocations: the head-first chain is appended to dst (the returned
// slice is dst extended, exactly like append). RUA's per-pass chain
// arena feeds every live job through this so a lock-based scheduling
// pass in steady state allocates nothing.
//
// The walk hashes nothing: wait records live on the jobs and holders in
// the owners slice. A job waits on at most one object, so the walk is a
// path that either ends or runs into a cycle, and the chain stops just
// before the first repeated holder. Brent's cycle detection finds that
// point in time linear in the chain, where checking every holder
// against the whole chain so far would be quadratic in the O(n)-deep
// chains of the paper's worst case (§3.6).
func (m *Map) AppendDependencyChain(dst []*task.Job, j *task.Job) (chain []*task.Job, cycle bool) {
	start := len(dst)
	//rtlint:ignore noalloc appends into the caller's reused arena; growth amortized
	dst = append(dst, j)
	// mark indexes a saved member of the walk; it jumps to the newest
	// member whenever the distance to it reaches a power of two, so a
	// cycle of length λ brings the walk back to mark within O(μ+λ) hops.
	mark, power := start, 1
	for cur := j; cur.WaitObj > 0; cur = dst[len(dst)-1] {
		holder := m.Owner(int(cur.WaitObj) - 1)
		if holder == nil {
			// The object was released since the wait was recorded; the
			// chain ends here and the waiter can re-request.
			break
		}
		//rtlint:ignore noalloc appends into the caller's reused arena; growth amortized
		dst = append(dst, holder)
		if holder == dst[mark] {
			// The walk recurs with period lam. The first repeated holder
			// is the first member that recurs lam steps later; the chain
			// keeps everything before its repeat.
			lam := len(dst) - 1 - mark
			mu := start
			for dst[mu] != dst[mu+lam] {
				mu++
			}
			dst = dst[:mu+lam]
			cycle = true
			break
		}
		if len(dst)-1-mark == power {
			mark, power = len(dst)-1, 2*power
		}
	}
	// The walk collected tail-first; reverse the appended region so the
	// chain reads head (must execute first) to tail (j itself).
	slices.Reverse(dst[start:])
	return dst, cycle
}
