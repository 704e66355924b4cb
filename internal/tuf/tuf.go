// Package tuf implements time/utility functions (TUFs), the time-constraint
// abstraction of Jensen, Locke, and Tokuda that the paper builds on.
//
// A TUF maps an activity's completion time (measured from its release) to
// the utility the system accrues by completing it then. Deadlines are the
// special case of a binary-valued downward "step": full utility up to the
// critical time, zero after. TUFs decouple urgency (the X axis) from
// importance (the Y axis), which is what lets utility-accrual schedulers
// distinguish the two during overloads.
//
// Every TUF in this package has a single critical time C: the earliest
// instant at which the function drops to zero, after which it stays zero
// (paper §2). The evaluation uses a homogeneous class (steps only) and a
// heterogeneous class (step, parabolic, and linearly-decreasing shapes);
// all three are provided, along with piecewise-linear TUFs for arbitrary
// shapes such as the air-defense correlation/intercept functions of Fig 1.
package tuf

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/rtime"
)

// TUF is a time/utility function. Implementations must be immutable and
// safe for concurrent use.
type TUF interface {
	// Utility returns the utility accrued if the activity completes t
	// after its release. It must be 0 for all t ≥ CriticalTime and for
	// all t < 0 (completion before release is impossible).
	Utility(t rtime.Duration) float64

	// CriticalTime returns C, the single instant at which the function
	// reaches (and stays at) zero utility.
	CriticalTime() rtime.Duration

	// MaxUtility returns sup over t of Utility(t). For the non-increasing
	// shapes the paper evaluates, this equals Utility(0).
	MaxUtility() float64

	// Shape returns a short human-readable tag ("step", "linear", ...).
	Shape() string
}

// ErrInvalid reports a malformed TUF specification.
var ErrInvalid = errors.New("tuf: invalid specification")

// Step is a binary-valued downward step TUF: utility U for completion in
// [0, C), zero afterward. This is the classical deadline.
type Step struct {
	U float64
	C rtime.Duration
}

// checkHeight is the whole validity rule of the shapes given by a height
// u and a critical time c (Step, Linear, Parabolic): c > 0 and u positive
// and finite. Each of them is then zero outside [0, c) and takes values in
// [0, u] inside it, so the sampled checks of Validate cannot fail.
func checkHeight(shape string, u float64, c rtime.Duration) error {
	if u <= 0 || c <= 0 || math.IsNaN(u) || math.IsInf(u, 0) {
		return fmt.Errorf("%w: %s needs u>0, c>0 (got u=%v c=%v)", ErrInvalid, shape, u, c)
	}
	return nil
}

// NewStep returns a step TUF with height u and critical time c.
func NewStep(u float64, c rtime.Duration) (Step, error) {
	if err := checkHeight("step", u, c); err != nil {
		return Step{}, err
	}
	return Step{U: u, C: c}, nil
}

// MustStep is NewStep that panics on error, for static task tables.
func MustStep(u float64, c rtime.Duration) Step {
	s, err := NewStep(u, c)
	if err != nil {
		panic(err)
	}
	return s
}

// Utility implements TUF.
func (s Step) Utility(t rtime.Duration) float64 {
	if t < 0 || t >= s.C {
		return 0
	}
	return s.U
}

// CriticalTime implements TUF.
func (s Step) CriticalTime() rtime.Duration { return s.C }

// MaxUtility implements TUF.
func (s Step) MaxUtility() float64 { return s.U }

// Shape implements TUF.
func (s Step) Shape() string { return "step" }

// Linear is a linearly-decreasing TUF: utility U at completion time 0,
// falling linearly to zero at the critical time C.
type Linear struct {
	U float64
	C rtime.Duration
}

// NewLinear returns a linearly-decreasing TUF.
func NewLinear(u float64, c rtime.Duration) (Linear, error) {
	if err := checkHeight("linear", u, c); err != nil {
		return Linear{}, err
	}
	return Linear{U: u, C: c}, nil
}

// MustLinear is NewLinear that panics on error.
func MustLinear(u float64, c rtime.Duration) Linear {
	l, err := NewLinear(u, c)
	if err != nil {
		panic(err)
	}
	return l
}

// Utility implements TUF.
func (l Linear) Utility(t rtime.Duration) float64 {
	if t < 0 || t >= l.C {
		return 0
	}
	return l.U * (1 - float64(t)/float64(l.C))
}

// CriticalTime implements TUF.
func (l Linear) CriticalTime() rtime.Duration { return l.C }

// MaxUtility implements TUF.
func (l Linear) MaxUtility() float64 { return l.U }

// Shape implements TUF.
func (l Linear) Shape() string { return "linear" }

// Parabolic is a downward parabolic TUF: utility U at completion time 0,
// decaying as U·(1 − (t/C)²) and reaching zero at the critical time C.
// This matches the "parabolic" member of the paper's heterogeneous class.
type Parabolic struct {
	U float64
	C rtime.Duration
}

// NewParabolic returns a parabolic TUF.
func NewParabolic(u float64, c rtime.Duration) (Parabolic, error) {
	if err := checkHeight("parabolic", u, c); err != nil {
		return Parabolic{}, err
	}
	return Parabolic{U: u, C: c}, nil
}

// MustParabolic is NewParabolic that panics on error.
func MustParabolic(u float64, c rtime.Duration) Parabolic {
	p, err := NewParabolic(u, c)
	if err != nil {
		panic(err)
	}
	return p
}

// Utility implements TUF.
func (p Parabolic) Utility(t rtime.Duration) float64 {
	if t < 0 || t >= p.C {
		return 0
	}
	x := float64(t) / float64(p.C)
	return p.U * (1 - x*x)
}

// CriticalTime implements TUF.
func (p Parabolic) CriticalTime() rtime.Duration { return p.C }

// MaxUtility implements TUF.
func (p Parabolic) MaxUtility() float64 { return p.U }

// Shape implements TUF.
func (p Parabolic) Shape() string { return "parabolic" }

// Point is one vertex of a piecewise-linear TUF.
type Point struct {
	T rtime.Duration
	U float64
}

// PiecewiseLinear interpolates linearly between a sorted sequence of
// points. It generalizes the soft/firm shapes of the paper's Fig 1, e.g.
// the AWACS association TUF or the plot-correlation TUF that first rises
// then falls. The last point must have utility 0 and its time is the
// critical time; utility is zero after it.
type PiecewiseLinear struct {
	pts  []Point
	c    rtime.Duration
	umax float64
}

// NewPiecewiseLinear builds a piecewise-linear TUF from vertices. The
// vertex times must be strictly increasing, start at T=0, all utilities
// must be ≥ 0 and finite, at least one utility must be positive, and the
// final utility must be 0 (the single critical time requirement of §2).
func NewPiecewiseLinear(pts []Point) (*PiecewiseLinear, error) {
	if len(pts) < 2 {
		return nil, fmt.Errorf("%w: piecewise-linear needs ≥ 2 points", ErrInvalid)
	}
	if pts[0].T != 0 {
		return nil, fmt.Errorf("%w: first point must be at t=0", ErrInvalid)
	}
	umax := 0.0
	for i, p := range pts {
		if p.U < 0 || math.IsNaN(p.U) || math.IsInf(p.U, 0) {
			return nil, fmt.Errorf("%w: utility at point %d is %v", ErrInvalid, i, p.U)
		}
		if i > 0 && pts[i].T <= pts[i-1].T {
			return nil, fmt.Errorf("%w: point times must strictly increase", ErrInvalid)
		}
		if p.U > umax {
			umax = p.U
		}
	}
	if umax == 0 {
		return nil, fmt.Errorf("%w: all utilities are zero", ErrInvalid)
	}
	last := pts[len(pts)-1]
	if last.U != 0 {
		return nil, fmt.Errorf("%w: last point must have zero utility (single critical time)", ErrInvalid)
	}
	cp := make([]Point, len(pts))
	copy(cp, pts)
	return &PiecewiseLinear{pts: cp, c: last.T, umax: umax}, nil
}

// MustPiecewiseLinear is NewPiecewiseLinear that panics on error.
func MustPiecewiseLinear(pts []Point) *PiecewiseLinear {
	p, err := NewPiecewiseLinear(pts)
	if err != nil {
		panic(err)
	}
	return p
}

// Utility implements TUF.
func (p *PiecewiseLinear) Utility(t rtime.Duration) float64 {
	if t < 0 || t >= p.c {
		return 0
	}
	// Binary search for the segment containing t.
	lo, hi := 0, len(p.pts)-1
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if p.pts[mid].T <= t {
			lo = mid
		} else {
			hi = mid
		}
	}
	a, b := p.pts[lo], p.pts[hi]
	frac := float64(t-a.T) / float64(b.T-a.T)
	return a.U + frac*(b.U-a.U)
}

// CriticalTime implements TUF.
func (p *PiecewiseLinear) CriticalTime() rtime.Duration { return p.c }

// MaxUtility implements TUF.
func (p *PiecewiseLinear) MaxUtility() float64 { return p.umax }

// Shape implements TUF.
func (p *PiecewiseLinear) Shape() string { return "piecewise-linear" }

// NonIncreasing reports whether f never increases on [0, C). The AUR
// bounds of Lemmas 4 and 5 require non-increasing TUFs; Theorem 3's
// remark about sojourn time improving utility also assumes this. The
// check samples the function densely, which is exact for the shapes in
// this package (they are monotone between samples at this density).
func NonIncreasing(f TUF) bool {
	c := f.CriticalTime()
	if c <= 0 {
		return true
	}
	const samples = 4096
	step := c / samples
	if step == 0 {
		step = 1
	}
	prev := f.Utility(0)
	for t := rtime.Duration(0); t < c; t += step {
		u := f.Utility(t)
		if u > prev+1e-12 {
			return false
		}
		prev = u
	}
	return true
}

// Validate checks the structural invariants every TUF must satisfy
// (paper §2): zero utility at and after the critical time, zero utility
// for negative completion times, non-negative utility everywhere, and a
// positive maximum.
//
// Step, Linear and Parabolic are checked in closed form from their
// parameters alone (checkHeight). Any other TUF, *PiecewiseLinear
// included, is sampled at 1024 points of [0, C), so an implementation
// that breaks an invariant between samples can pass.
func Validate(f TUF) error {
	switch f := f.(type) {
	case Step:
		return checkHeight(f.Shape(), f.U, f.C)
	case Linear:
		return checkHeight(f.Shape(), f.U, f.C)
	case Parabolic:
		return checkHeight(f.Shape(), f.U, f.C)
	}
	return validateSampled(f)
}

// validateSampled checks the invariants by evaluating f at the critical
// time, just after it, just before release and at 1024 points of [0, C).
func validateSampled(f TUF) error {
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
