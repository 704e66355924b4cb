package obs_test

import (
	"testing"

	"repro/internal/metrics/hist"
	"repro/internal/obs"
	"repro/internal/rtime"
	"repro/internal/trace"
)

// recordReference runs the reference workload once and returns its full
// event stream and horizon: the raw material the allocation tests
// replay through fresh pipelines, time-shifted pass by pass so the
// stream stays nondecreasing and job keys never collide.
func recordReference(t testing.TB) ([]trace.Event, rtime.Time) {
	const horizon = rtime.Time(60_000)
	rec := trace.NewRecorder(0)
	runWith(t, testTasks(t), horizon, rec.Record)
	if rec.Len() < 1000 {
		t.Fatalf("reference run too small: %d events", rec.Len())
	}
	// Keep only jobs that depart within the recording: jobs cut off
	// mid-flight by the horizon have no departure event, so each replay
	// pass would leave their state live forever — a harness artifact,
	// not pipeline behavior (a real run seals them in Finish).
	departed := make(map[[2]int]bool)
	for _, e := range rec.Events() {
		if e.Kind == trace.Complete || e.Kind == trace.AbortDone {
			departed[[2]int{e.Task, e.Seq}] = true
		}
	}
	var events []trace.Event
	for _, e := range rec.Events() {
		if e.Task < 0 || e.Kind == trace.SchedPass || e.Kind == trace.FeasOK || e.Kind == trace.FeasFail ||
			departed[[2]int{e.Task, e.Seq}] {
			events = append(events, e)
		}
	}
	return events, horizon
}

// replay feeds one time-shifted pass of the reference stream into p.
// Seq is offset per pass so (task, seq) job keys are fresh each time —
// the span fold retires departed jobs, so repeated keys of still-live
// jobs would be duplicate arrivals.
func replay(p *obs.Pipeline, events []trace.Event, pass int, span rtime.Time) {
	atOff := rtime.Time(pass) * span
	seqOff := pass * 1_000_000
	for _, e := range events {
		e.At += atOff
		e.Seq += seqOff
		p.Observe(e)
	}
}

// TestPipelineSteadyStateAllocs pins the streaming pipeline's
// steady-state behavior: once the ring is full, the maps are sized, and
// the span pool is primed, replaying thousands of events allocates at
// most a small constant (jobs still in flight when a pass's horizon
// cuts off stay live and keep their state). A regression that buffers
// events or re-allocates per event trips this immediately.
func TestPipelineSteadyStateAllocs(t *testing.T) {
	events, span := recordReference(t)
	const warmup, measured = 2, 5
	p, err := obs.NewPipeline(obs.Config{
		Horizon:      span * rtime.Time(warmup+measured+4),
		CPUs:         1,
		SeriesWindow: rtime.Duration(span), // one window per pass: O(passes) points
		Flight:       256,
	})
	if err != nil {
		t.Fatal(err)
	}
	pass := 0
	for ; pass < warmup; pass++ {
		replay(p, events, pass, span)
	}
	avg := testing.AllocsPerRun(measured, func() {
		replay(p, events, pass, span)
		pass++
	})
	// Every job in the reference stream departs, so a warm pass must be
	// allocation-free: states come from the pool, map entries and segment
	// slices are reused, the ring overwrites in place. A tiny slack
	// absorbs incidental runtime rebalancing.
	if avg > 4 {
		t.Fatalf("steady-state pass of %d events allocated %.0f times, want ≈ 0", len(events), avg)
	}
	if p.Snapshot().Events == 0 || p.Snapshot().Commits == 0 {
		t.Fatal("replay folded nothing; allocation check is vacuous")
	}
}

// warmPasses is how many replay passes push every per-object ops
// histogram past its exact-sample cap. Below the cap a histogram's sample
// buffer still grows by append: a bounded warm-up cost (≤ 512 KB per
// histogram), not a per-event one, which would otherwise surface as a
// fractional B/op whenever b.N is small enough.
func warmPasses(events []trace.Event) int {
	perObj := map[int]int{}
	for _, e := range events {
		if e.Kind == trace.Commit {
			perObj[e.Object]++
		}
	}
	least := 0
	for _, n := range perObj {
		if least == 0 || n < least {
			least = n
		}
	}
	return hist.DefaultExactCap/least + 1
}

// BenchmarkPipelineObserve measures the per-event cost of the full
// pipeline (span fold + series fold + ops fold + flight ring) in its
// steady state. The interesting number is B/op: the streaming
// observability claim is that it stays at zero once warm.
func BenchmarkPipelineObserve(b *testing.B) {
	b.StopTimer()
	events, span := recordReference(b)
	warm := warmPasses(events)
	passes := warm + b.N/len(events) + 2
	p, err := obs.NewPipeline(obs.Config{
		Horizon:      span * rtime.Time(passes+2),
		CPUs:         1,
		SeriesWindow: rtime.Duration(span),
		Flight:       1024,
	})
	if err != nil {
		b.Fatal(err)
	}
	// Warm: fill the ring, size the maps, and retire every histogram's
	// exact-sample buffer.
	for pass := 0; pass < warm; pass++ {
		replay(p, events, pass, span)
	}
	b.ReportAllocs()
	b.StartTimer()
	pass, i := warm, 0
	atOff := span * rtime.Time(warm)
	seqOff := warm * 1_000_000
	for n := 0; n < b.N; n++ {
		e := events[i]
		e.At += atOff
		e.Seq += seqOff
		p.Observe(e)
		i++
		if i == len(events) {
			i = 0
			pass++
			atOff = span * rtime.Time(pass)
			seqOff = pass * 1_000_000
		}
	}
}
