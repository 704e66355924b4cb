package uam

import (
	"math/rand"
	"testing"

	"repro/internal/rtime"
)

// alwaysDrawJittered is the jittered generator as it reads without the
// l = a shortcut: it draws one exponential gap for every candidate.
func alwaysDrawJittered(s Spec, seed int64, horizon rtime.Time) Trace {
	g := &Generator{Spec: s}
	rng := rand.New(rand.NewSource(seed))
	var tr Trace
	mean := 1.0 / s.MeanRate()
	t := rtime.Time(0).Add(s.Phase)
	for {
		gap := rtime.Duration(rng.ExpFloat64() * mean)
		if gap < 1 {
			gap = 1
		}
		at := g.place(t.Add(gap))
		if at >= horizon {
			return tr
		}
		tr = append(tr, g.emit(at))
		t = at
	}
}

// TestForcedJitteredIgnoresDraws checks the draw-skipping jittered
// generator against one that always draws, over random specs with
// l ≤ a, and that every l = a trace is the burst train of a arrivals at
// each Phase + kW.
func TestForcedJitteredIgnoresDraws(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	forced := 0
	for i := 0; i < 20_000; i++ {
		a := rng.Intn(5) + 1
		l := rng.Intn(a + 1)
		w := rtime.Duration(rng.Intn(1000) + 1)
		s := Spec{L: l, A: a, W: w, Phase: rtime.Duration(rng.Int63n(int64(w)))}
		seed := rng.Int63()
		horizon := rtime.Time(rng.Int63n(40 * int64(w)))

		g, err := NewGenerator(s, seed)
		if err != nil {
			t.Fatal(err)
		}
		got := g.Generate(KindJittered, horizon)
		want := alwaysDrawJittered(s, seed, horizon)
		if len(got) != len(want) {
			t.Fatalf("spec %v seed %d horizon %v: %d arrivals, always-draw reference has %d",
				s, seed, horizon, len(got), len(want))
		}
		for k := range got {
			if got[k] != want[k] {
				t.Fatalf("spec %v seed %d: arrival %d at %v, always-draw reference at %v",
					s, seed, k, got[k], want[k])
			}
		}
		if l != a {
			continue
		}
		forced++
		for k, at := range got {
			if burst := rtime.Time(0).Add(s.Phase).Add(rtime.Duration(k/a) * w); at != burst {
				t.Fatalf("spec %v: arrival %d at %v, burst train has %v", s, k, at, burst)
			}
		}
	}
	if forced == 0 {
		t.Fatal("no l = a spec drawn")
	}
}

// TestGeneratorSeedsOnFirstDraw pins the set-up saving: only a jittered
// generator with l < a builds a random source.
func TestGeneratorSeedsOnFirstDraw(t *testing.T) {
	cases := []struct {
		s     Spec
		kind  Kind
		draws bool
	}{
		{Spec{L: 2, A: 2, W: 100}, KindJittered, false},
		{Spec{L: 1, A: 1, W: 100, Phase: 40}, KindJittered, false},
		{Spec{L: 0, A: 2, W: 100}, KindBursty, false},
		{Spec{L: 0, A: 2, W: 100}, KindPeriodic, false},
		{Spec{L: 0, A: 2, W: 100}, KindJittered, true},
	}
	for _, c := range cases {
		g, err := NewGenerator(c.s, 3)
		if err != nil {
			t.Fatal(err)
		}
		if g.rng != nil {
			t.Fatalf("spec %v: NewGenerator built a source", c.s)
		}
		if tr := g.Generate(c.kind, 10_000); len(tr) == 0 {
			t.Fatalf("spec %v kind %d: empty trace", c.s, c.kind)
		}
		if built := g.rng != nil; built != c.draws {
			t.Errorf("spec %v kind %d: source built = %v, want %v", c.s, c.kind, built, c.draws)
		}
	}
}

// TestPruneMovesAmortized drives the periodic generator with a large a,
// where every arrival after the first window prunes exactly one, and
// counts the arrivals prune moves to the front of the buffer. Moving the
// kept window on every prune would cost about a moves per arrival; the
// bound is one per arrival over the whole trace.
func TestPruneMovesAmortized(t *testing.T) {
	const a = 10_000
	s := Spec{L: 0, A: a, W: a}
	horizon := rtime.Time(4 * a)
	g := &Generator{Spec: s}
	var tr Trace
	moved := 0
	for next := rtime.Time(0); ; {
		n0 := len(g.recent)
		var first *rtime.Time
		if n0 > 0 {
			first = &g.recent[0]
		}
		at := g.place(next)
		if n := len(g.recent); n < n0 && n > 0 && &g.recent[0] == first {
			moved += n
		}
		if at >= horizon {
			break
		}
		tr = append(tr, g.emit(at))
		next = at.Add(1)
	}

	ref, err := NewGenerator(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	if want := ref.Generate(KindPeriodic, horizon); len(tr) != len(want) {
		t.Fatalf("driven loop emitted %d arrivals, Generate %d", len(tr), len(want))
	}
	if moved > len(tr) {
		t.Fatalf("prune moved %d arrivals over a %d-arrival trace with a = %d", moved, len(tr), a)
	}
}
