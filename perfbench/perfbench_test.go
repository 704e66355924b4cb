package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"

	"repro/internal/experiment"
	"repro/internal/gsim"
	"repro/internal/multi"
	"repro/internal/rtime"
	"repro/internal/rua"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/trace"
	"repro/internal/uam"
)

func TestScheduleIsPureFunctionOfSeedAndRate(t *testing.T) {
	a := schedule(7, serveRate, 0, 60)
	if !reflect.DeepEqual(a, schedule(7, serveRate, 0, 60)) {
		t.Fatal("same seed and rate gave different schedules")
	}
	if reflect.DeepEqual(a, schedule(8, serveRate, 0, 60)) {
		t.Fatal("different seeds gave the same schedule")
	}
	// A stretch of the stream is the same stretch whether built alone or
	// as part of the whole, apart from due times relative to its start.
	tail := schedule(7, serveRate, 25, 35)
	for i, se := range tail {
		if !reflect.DeepEqual(se.reqs, a[25+i].reqs) {
			t.Fatalf("session %d differs when built from offset 25", 25+i)
		}
	}
	for i, se := range a {
		if want := float64(i) / serveRate; math.Abs(se.due.Seconds()-want) > 1e-9 {
			t.Fatalf("session %d due %v, want %.9fs", i, se.due, want)
		}
	}
	// Misses never repeat a spec (so they always miss), and every hit is
	// a pool spec.
	seen := map[string]bool{}
	for k := 0; k < servePool; k++ {
		seen[string(poolSlot(7, k).spec)] = true
	}
	for _, se := range a {
		for _, sl := range se.reqs {
			if sl.class == classHit {
				if !seen[string(sl.spec)] || !bytes.Equal(sl.spec, poolSlot(7, sl.pool).spec) {
					t.Fatalf("hit %s is not pool spec %d", sl.spec, sl.pool)
				}
				continue
			}
			if seen[string(sl.spec)] {
				t.Fatalf("miss spec %s repeats", sl.spec)
			}
			seen[string(sl.spec)] = true
		}
	}
}

// resultCounters drops a Result's per-job records, keeping every counter.
func resultCounters(r sim.Result) sim.Result {
	r.Jobs = nil
	return r
}

func TestTimedRUALeavesResultsBitIdentical(t *testing.T) {
	tmpl, err := experiment.ScaleWorkload(300, scaleAL, experiment.StepTUFs)
	if err != nil {
		t.Fatal(err)
	}
	var maxC rtime.Duration
	for _, tk := range tmpl {
		maxC = max(maxC, tk.CriticalTime())
	}
	horizon := rtime.Time(int64(maxC) * scaleHorizonMult)
	for _, lockFree := range []bool{true, false} {
		mode, newRUA := sim.LockBased, rua.NewLockBased
		if lockFree {
			mode, newRUA = sim.LockFree, rua.NewLockFree
		}
		// run executes all three engines, wrapping every scheduler and
		// attaching the timing observer when pr is non-nil.
		run := func(pr *probe) []sim.Result {
			wrap := func() sched.TopK {
				if pr == nil {
					return newRUA()
				}
				return &timedRUA{r: newRUA(), p: pr}
			}
			var observer func(trace.Event)
			if pr != nil {
				observer = pr.observe
			}
			uni, err := sim.Run(sim.Config{
				Tasks: task.CloneAll(tmpl), Scheduler: wrap(), Mode: mode,
				R: experiment.DefaultR, S: experiment.DefaultS, Horizon: horizon,
				ArrivalKind: uam.KindJittered, Seed: 3, ConservativeRetry: true, Observer: observer,
			})
			if err != nil {
				t.Fatal(err)
			}
			mres, err := multi.Run(multi.Config{
				CPUs: scaleCPUs, Tasks: task.CloneAll(tmpl), Mode: mode,
				NewScheduler: func() sched.Scheduler { return wrap() },
				R:            experiment.DefaultR, S: experiment.DefaultS, Horizon: horizon,
				ArrivalKind: uam.KindJittered, Seed: 3, ConservativeRetry: true, Observer: observer,
			})
			if err != nil {
				t.Fatal(err)
			}
			glob, err := gsim.Run(gsim.Config{
				CPUs: scaleCPUs, Tasks: task.CloneAll(tmpl), Scheduler: wrap(), Mode: mode,
				R: experiment.DefaultR, S: experiment.DefaultS, Horizon: horizon,
				ArrivalKind: uam.KindJittered, Seed: 3, Observer: observer,
			})
			if err != nil {
				t.Fatal(err)
			}
			out := []sim.Result{resultCounters(uni), resultCounters(glob)}
			for _, r := range mres.PerCPU {
				out = append(out, resultCounters(r))
			}
			return out
		}
		pr := &probe{}
		plain, wrapped := run(nil), run(pr)
		if !reflect.DeepEqual(plain, wrapped) {
			t.Errorf("lockFree=%v: wrapped results differ:\nplain   %+v\nwrapped %+v", lockFree, plain, wrapped)
		}
		var ops int64
		for _, r := range plain {
			ops += r.SchedOps
		}
		if pr.calls == 0 || pr.ops != ops {
			t.Errorf("lockFree=%v: wrapper counted %d calls, %d ops; results charge %d ops", lockFree, pr.calls, pr.ops, ops)
		}
	}
}

// pb is a minimal protobuf encoder for building a known profile.
type pb struct{ b []byte }

func (p *pb) varint(num int, v uint64) *pb {
	p.b = binary.AppendUvarint(p.b, uint64(num)<<3)
	p.b = binary.AppendUvarint(p.b, v)
	return p
}

func (p *pb) bytes(num int, data []byte) *pb {
	p.b = binary.AppendUvarint(p.b, uint64(num)<<3|2)
	p.b = binary.AppendUvarint(p.b, uint64(len(data)))
	p.b = append(p.b, data...)
	return p
}

func (p *pb) packed(num int, vs ...uint64) *pb {
	var q []byte
	for _, v := range vs {
		q = binary.AppendUvarint(q, v)
	}
	return p.bytes(num, q)
}

func TestBucketingOnKnownProfile(t *testing.T) {
	fns := []string{"",
		"repro/internal/rua.(*RUA).selectFull",    // 1
		"repro/internal/rtime/wheel.(*Wheel).Pop", // 2
		"repro/internal/sim.(*Engine).step",       // 3
		"runtime.mallocgc",                        // 4
		"runtime.gcAssistAlloc",                   // 5
		"net/http.(*conn).serve",                  // 6
		"encoding/json.Marshal",                   // 7
		"main.main",                               // 8
		"runtime.futex",                           // 9
		"repro/internal/trace.WritePerfetto",      // 10
		"repro/internal/obs.(*Pipeline).Observe",  // 11
		"repro/internal/experiment.Fig9",          // 12
		"repro/internal/metrics/hist.(*Hist).Add", // 13
		"repro/internal/rtime/wheel.(*Wheel[go.shape.struct { repro/internal/sim.kind int }]).Pop", // 14
	}
	prof := &pb{}
	for i, name := range fns {
		prof.bytes(6, []byte(name))
		if i > 0 {
			prof.bytes(5, (&pb{}).varint(1, uint64(i)).varint(2, uint64(i)).b)
			// Location i holds function i alone.
			prof.bytes(4, (&pb{}).varint(1, uint64(i)).bytes(4, (&pb{}).varint(1, uint64(i)).b).b)
		}
	}
	// Location 20 is an inlined pair: hist.Add inlined into obs.Observe.
	prof.bytes(4, (&pb{}).varint(1, 20).
		bytes(4, (&pb{}).varint(1, 13).b).
		bytes(4, (&pb{}).varint(1, 11).b).b)
	sample := func(count uint64, locs ...uint64) {
		s := &pb{}
		if len(locs) > 2 {
			s.packed(1, locs...)
		} else {
			for _, l := range locs {
				s.varint(1, l)
			}
		}
		s.packed(2, count, count*10_000_000)
		prof.bytes(2, s.b)
	}
	sample(40, 1, 3)      // rua leaf under the engine: rua
	sample(10, 2, 3)      // wheel
	sample(20, 4, 3)      // mallocgc charged to its caller: engine
	sample(5, 4, 5, 4, 1) // a GC assist inside RUA's allocation: gc
	sample(6, 7, 6)       // json under net/http: http
	sample(4, 8)          // the benchmark's own code: bench
	sample(3, 9)          // no layer on the stack: other
	sample(7, 10, 12)     // perfetto rendering: render
	sample(5, 20, 12)     // inlined hist.Add leaf: obs
	sample(3, 14, 3)      // generic wheel method whose type argument names sim: wheel
	var z bytes.Buffer
	zw := gzip.NewWriter(&z)
	_, _ = zw.Write(prof.b)
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	stacks, err := parseProfile(z.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got := stacks[8].frames; !reflect.DeepEqual(got, []string{fns[13], fns[11], fns[12]}) {
		t.Fatalf("inlined frames = %v", got)
	}
	got := bucketShares(stacks)
	want := map[string]float64{"rua": 40, "wheel": 13, "engine": 20, "gc": 5, "http": 6,
		"bench": 4, "other": 3, "render": 7, "obs": 5, "experiment": 0}
	for b, n := range want {
		if math.Abs(got[b]-n/103) > 1e-12 {
			t.Errorf("%s share = %v, want %v", b, got[b], n/103)
		}
	}
	if len(got) != len(cpuBuckets) {
		t.Errorf("got %d buckets, want %d", len(got), len(cpuBuckets))
	}
	if _, err := parseProfile([]byte{0x0a, 0x05, 0x01}); err == nil {
		t.Error("truncated profile parsed without error")
	}
}

func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	var wls []string
	for _, w := range doc.Workloads {
		wls = append(wls, w.Name)
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q has no runner", w.Name)
		}
	}
	if len(wls) != len(workloads) {
		t.Errorf("BENCHMARK.json lists workloads %v, the program has %d", wls, len(workloads))
	}
	var e2e [][2]string
	for _, m := range doc.EndToEnd {
		e2e = append(e2e, [2]string{m.Name, m.Unit})
	}
	var wantE2E [][2]string
	for _, n := range endToEnd {
		wantE2E = append(wantE2E, [2]string{n, unitOf(n)})
	}
	if !reflect.DeepEqual(e2e, wantE2E) {
		t.Errorf("end_to_end = %v, program reports %v", e2e, wantE2E)
	}
	var layer [][2]string
	for _, m := range doc.PerLayer {
		layer = append(layer, [2]string{m.Name, m.Unit})
	}
	if !reflect.DeepEqual(layer, layerUnits()) {
		t.Errorf("per_layer = %v,\nprogram reports %v", layer, layerUnits())
	}
}
