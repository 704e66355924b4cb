package tuf

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/rtime"
)

// sampledValidate is the reference Validate: the invariants checked at
// the critical time, around it and at 1024 points of [0, C), for every
// TUF alike.
func sampledValidate(f TUF) error {
	c := f.CriticalTime()
	if c <= 0 {
		return fmt.Errorf("%w: critical time %v must be positive", ErrInvalid, c)
	}
	if u := f.Utility(c); u != 0 {
		return fmt.Errorf("%w: utility at critical time is %v, want 0", ErrInvalid, u)
	}
	if u := f.Utility(c + 1); u != 0 {
		return fmt.Errorf("%w: utility after critical time is %v, want 0", ErrInvalid, u)
	}
	if u := f.Utility(-1); u != 0 {
		return fmt.Errorf("%w: utility before release is %v, want 0", ErrInvalid, u)
	}
	if f.MaxUtility() <= 0 {
		return fmt.Errorf("%w: max utility %v must be positive", ErrInvalid, f.MaxUtility())
	}
	const samples = 1024
	step := c / samples
	if step == 0 {
		step = 1
	}
	for t := rtime.Duration(0); t < c; t += step {
		u := f.Utility(t)
		if u < 0 || math.IsNaN(u) || math.IsInf(u, 0) {
			return fmt.Errorf("%w: utility at %v is %v", ErrInvalid, t, u)
		}
		if u > f.MaxUtility()+1e-9 {
			return fmt.Errorf("%w: utility %v at %v exceeds MaxUtility %v", ErrInvalid, u, t, f.MaxUtility())
		}
	}
	return nil
}

// heightShape is one of the shapes given by a height and a critical
// time, built as a struct literal and through its constructor.
type heightShape struct {
	name    string
	literal func(u float64, c rtime.Duration) TUF
	build   func(u float64, c rtime.Duration) (TUF, error)
}

var heightShapes = []heightShape{
	{"step", func(u float64, c rtime.Duration) TUF { return Step{U: u, C: c} },
		func(u float64, c rtime.Duration) (TUF, error) { return NewStep(u, c) }},
	{"linear", func(u float64, c rtime.Duration) TUF { return Linear{U: u, C: c} },
		func(u float64, c rtime.Duration) (TUF, error) { return NewLinear(u, c) }},
	{"parabolic", func(u float64, c rtime.Duration) TUF { return Parabolic{U: u, C: c} },
		func(u float64, c rtime.Duration) (TUF, error) { return NewParabolic(u, c) }},
}

// agreeWithSampled reports a mismatch between Validate and the sampling
// reference on f, and a rejection that does not wrap ErrInvalid.
func agreeWithSampled(f TUF) error {
	got, want := Validate(f), sampledValidate(f)
	if (got == nil) != (want == nil) {
		return fmt.Errorf("%s %+v: Validate = %v, sampling reference = %v", f.Shape(), f, got, want)
	}
	if got != nil && !errors.Is(got, ErrInvalid) {
		return fmt.Errorf("%s %+v: error %v does not wrap ErrInvalid", f.Shape(), f, got)
	}
	return nil
}

// checkHeightShape compares Validate with the sampling reference on the
// literal ⟨u, c⟩, and checks that the constructor accepts exactly what
// Validate accepts.
func checkHeightShape(sh heightShape, u float64, c rtime.Duration) error {
	lit := sh.literal(u, c)
	if err := agreeWithSampled(lit); err != nil {
		return err
	}
	built, err := sh.build(u, c)
	if (err == nil) != (Validate(lit) == nil) {
		return fmt.Errorf("%s u=%v c=%v: constructor error %v, Validate(literal) = %v", sh.name, u, c, err, Validate(lit))
	}
	if err != nil {
		if !errors.Is(err, ErrInvalid) {
			return fmt.Errorf("%s u=%v c=%v: constructor error %v does not wrap ErrInvalid", sh.name, u, c, err)
		}
		return nil
	}
	return agreeWithSampled(built)
}

// TestValidateMatchesSampling: the closed-form checks accept exactly the
// TUFs the sampling check accepts, over the corner heights and times.
func TestValidateMatchesSampling(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	us := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -1, 1e-300, 1e300, rng.Float64() * 100}
	cs := []rtime.Duration{-1, 0, 1, rtime.Duration(rng.Int63n(1e9)) + 1}
	for _, sh := range heightShapes {
		for _, u := range us {
			for _, c := range cs {
				if err := checkHeightShape(sh, u, c); err != nil {
					t.Error(err)
				}
			}
		}
	}
	// A NaN height fails only in the sampling loop, not at the
	// MaxUtility check: the closed form must still reject it.
	for _, sh := range heightShapes {
		if err := Validate(sh.literal(math.NaN(), 10)); !errors.Is(err, ErrInvalid) {
			t.Errorf("%s with NaN height: Validate = %v, want ErrInvalid", sh.name, err)
		}
	}
}

// TestQuickValidateMatchesSampling draws random heights and critical
// times, a quarter of the heights replaced by a corner value, for each
// shape.
func TestQuickValidateMatchesSampling(t *testing.T) {
	corners := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -1, 1e-300, 1e300, math.MaxFloat64, math.SmallestNonzeroFloat64}
	for _, sh := range heightShapes {
		sh := sh
		t.Run(sh.name, func(t *testing.T) {
			f := func(u float64, c int64, corner uint8) bool {
				if int(corner) < 2*len(corners) && corner%2 == 0 {
					u = corners[corner/2]
				}
				if err := checkHeightShape(sh, u, rtime.Duration(c)); err != nil {
					t.Log(err)
					return false
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
				t.Fatal(err)
			}
		})
	}
}
