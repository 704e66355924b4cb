package kernel

import (
	"testing"
	"unsafe"

	"repro/internal/rtime"
	"repro/internal/task"
	"repro/internal/tuf"
	"repro/internal/uam"
)

func TestJobKeepsItsSizeClass(t *testing.T) {
	// The slab index rides in the padding after task.Job.Slot; a field
	// that pushed Job past 128 bytes would move every job to the next
	// allocation size class.
	if got := unsafe.Sizeof(task.Job{}); got != 128 {
		t.Fatalf("unsafe.Sizeof(task.Job{}) = %d, want 128", got)
	}
}

// idle is a policy that never runs anything.
type idle struct{}

func (idle) Pass() (int64, []*task.Job) { return 0, nil }
func (idle) Dispatch()                  {}
func (idle) Abort(*task.Job)            {}
func (idle) Descheduled(int, *task.Job) {}

func TestSlabIndexIsCreationOrder(t *testing.T) {
	tasks := make([]*task.Task, 3)
	for i := range tasks {
		tasks[i] = &task.Task{
			ID:       i,
			TUF:      tuf.MustStep(1, 100),
			Arrival:  uam.Spec{L: 0, A: 1, W: 100},
			Segments: task.InterleavedSegments(10, 0, nil),
		}
	}
	arrivals := []uam.Trace{{50, 300}, nil, {0, 100, 200}}
	k, err := New(Config{Tasks: tasks, R: 1, S: 1, Horizon: 1000, Arrivals: arrivals, CPUs: 1}, idle{})
	if err != nil {
		t.Fatal(err)
	}
	r := k.Run()
	if len(r.Jobs) != 5 || len(k.states) != 5 {
		t.Fatalf("%d jobs, %d slab entries; want 5 of each", len(r.Jobs), len(k.states))
	}
	// Jobs come out in release order; their slab index is the order New
	// created them in: task by task, release by release.
	want := map[[2]int]int32{{0, 0}: 0, {0, 1}: 1, {2, 0}: 2, {2, 1}: 3, {2, 2}: 4}
	prev := rtime.Time(-1)
	for _, j := range r.Jobs {
		if got := want[[2]int{j.Task.ID, j.Seq}]; j.Idx != got {
			t.Errorf("%s: Idx %d, want %d", j.Name(), j.Idx, got)
		}
		if j.Arrival < prev {
			t.Errorf("%s released out of order", j.Name())
		}
		prev = j.Arrival
		if k.State(j).entrySeg != -1 {
			t.Errorf("%s: fresh slab entry not reset", j.Name())
		}
	}
}
