// Package serve is the rtsimd serving layer: a long-running HTTP
// daemon that accepts scenario specs (JSON), validates and
// admission-controls them, executes each on the shared
// internal/artifact builders with per-request isolation, and streams
// progress incrementally as NDJSON while final artifacts are served
// per run.
//
// The conformance contract is the spine of the package: every engine
// run is byte-deterministic, and the daemon executes the exact builder
// functions the rtsim CLI executes, so a spec served over HTTP yields
// report/CSV/trace artifacts byte-identical to the batch invocation of
// the same spec — for any worker count, any submission interleaving,
// and whether the result came from the cache or a fresh run. The suite
// in conformance_test.go and the CI serve-smoke job pin that contract.
package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/experiment"
	"repro/internal/fault"
	"repro/internal/stoch"
)

// Version tags the artifact-rendering code the daemon is running; it
// is part of every cache key, so cached bytes can never leak across
// releases that changed what a spec renders to.
const Version = "rtsimd-1"

// Error is the structured validation error every invalid spec decodes
// to — the body of a 400 response, never a panic and never a bare
// string.
type Error struct {
	Code   string `json:"code"`            // "invalid-json" or "invalid-spec"
	Field  string `json:"field,omitempty"` // spec field at fault, dotted path
	Reason string `json:"reason"`
}

// Error renders the structured error as text.
func (e *Error) Error() string {
	if e.Field == "" {
		return fmt.Sprintf("%s: %s", e.Code, e.Reason)
	}
	return fmt.Sprintf("%s: %s: %s", e.Code, e.Field, e.Reason)
}

// TraceSpec requests a fully-observed canonical-workload trace run.
type TraceSpec struct {
	// Sim is the traced engine: uni (default), multi, or global.
	Sim string `json:"sim,omitempty"`
	// Mode is the synchronization discipline: lockfree (default) or
	// lockbased.
	Mode string `json:"mode,omitempty"`
	// Format is the trace rendering: perfetto (default), json, or spans.
	Format string `json:"format,omitempty"`
	// Limit bounds the recorder (0 = unbounded); drops are counted.
	Limit int `json:"limit,omitempty"`
	// Flight attaches a bounded flight recorder of this many events;
	// the first anomaly snapshots it into a served flight dump.
	Flight int `json:"flight,omitempty"`
}

// ReportSpec requests the canonical-workload CSV+HTML report.
type ReportSpec struct {
	// Figs are the experiment ids rendered as figure sections, in
	// order; the single entry "all" expands to every registered one.
	Figs []string `json:"figs,omitempty"`
}

// Spec is one client-submitted scenario: which profile to run, which
// fault/stochastic plans to overlay, and which artifacts to render.
// The zero spec is invalid (it requests nothing).
//
// A decoded spec is always in canonical form: defaults are filled,
// plan strings are re-rendered fully explicit with their seed
// overrides folded in, and "all" figure lists are expanded — so equal
// scenarios encode to equal bytes and the cache key is exact.
// Execution width (the rtsim -jobs knob) is deliberately absent: it
// never changes output bytes, so it is an operational setting of the
// daemon, not part of the scenario.
type Spec struct {
	// Profile is the experiment scale: quick (default) or full.
	Profile string `json:"profile,omitempty"`

	// Faults is a fault-injection plan in internal/fault syntax (off,
	// light, heavy, or key=value pairs); FaultSeed, when nonzero,
	// overrides the plan's seed and is folded into the canonical string.
	Faults    string `json:"faults,omitempty"`
	FaultSeed int64  `json:"fault_seed,omitempty"`

	// Stoch overlays the seeded stochastic scheduler (off, uni, geo, or
	// key=value pairs); StochSeed mirrors FaultSeed.
	Stoch     string `json:"stoch,omitempty"`
	StochSeed int64  `json:"stoch_seed,omitempty"`

	// Requested artifacts; at least one must be set.
	Metrics bool        `json:"metrics,omitempty"`
	Report  *ReportSpec `json:"report,omitempty"`
	Trace   *TraceSpec  `json:"trace,omitempty"`
}

// DecodeSpec parses and canonicalizes one JSON scenario spec. On any
// failure the returned error is a *Error — the structured body of a
// 400 — never a panic. A successfully decoded spec is canonical:
// Encode → DecodeSpec → Encode is the identity.
func DecodeSpec(data []byte) (*Spec, *Error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	s := &Spec{}
	if err := dec.Decode(s); err != nil {
		return nil, &Error{Code: "invalid-json", Reason: err.Error()}
	}
	// A spec is one JSON object; trailing values are a malformed request.
	if dec.More() {
		return nil, &Error{Code: "invalid-json", Reason: "trailing data after spec object"}
	}
	if err := s.canonicalize(); err != nil {
		return nil, err
	}
	return s, nil
}

// Encode renders the canonical spec as deterministic JSON (one line,
// fixed field order). Only valid on a spec produced by DecodeSpec or
// canonicalized by hand.
func (s *Spec) Encode() []byte {
	b, err := json.Marshal(s)
	if err != nil {
		// Spec has no unmarshalable fields; this is unreachable.
		panic(fmt.Sprintf("serve: encode spec: %v", err))
	}
	return append(b, '\n')
}

// CacheKey is the exact result-cache key: canonical spec bytes plus
// the artifact-code version.
func (s *Spec) CacheKey() string {
	return string(s.Encode()) + "|" + Version
}

// canonicalize validates the spec in place and rewrites it to the
// canonical form equal scenarios share.
func (s *Spec) canonicalize() *Error {
	switch s.Profile {
	case "":
		s.Profile = "quick"
	case "quick", "full":
	default:
		return &Error{Code: "invalid-spec", Field: "profile",
			Reason: fmt.Sprintf("unknown profile %q (want quick or full)", s.Profile)}
	}
	if s.Faults != "" || s.FaultSeed != 0 {
		plan, err := fault.ParsePlan(s.Faults)
		if err != nil {
			return &Error{Code: "invalid-spec", Field: "faults", Reason: err.Error()}
		}
		if s.FaultSeed != 0 {
			plan.Seed = s.FaultSeed
			s.FaultSeed = 0
		}
		s.Faults = renderFaultPlan(plan)
	}
	if s.Stoch != "" || s.StochSeed != 0 {
		plan, err := stoch.ParsePlan(s.Stoch)
		if err != nil {
			return &Error{Code: "invalid-spec", Field: "stoch", Reason: err.Error()}
		}
		if s.StochSeed != 0 {
			plan.Seed = s.StochSeed
			s.StochSeed = 0
		}
		s.Stoch = renderStochPlan(plan)
	}
	if s.Trace != nil {
		t := s.Trace
		switch t.Sim {
		case "":
			t.Sim = experiment.TraceSimUni
		case experiment.TraceSimUni, experiment.TraceSimMulti, experiment.TraceSimGlobal:
		default:
			return &Error{Code: "invalid-spec", Field: "trace.sim",
				Reason: fmt.Sprintf("unknown simulator %q (want uni, multi, or global)", t.Sim)}
		}
		switch t.Mode {
		case "":
			t.Mode = "lockfree"
		case "lockfree", "lockbased":
		default:
			return &Error{Code: "invalid-spec", Field: "trace.mode",
				Reason: fmt.Sprintf("unknown mode %q (want lockfree or lockbased)", t.Mode)}
		}
		switch t.Format {
		case "":
			t.Format = "perfetto"
		case "json", "perfetto", "spans":
		default:
			return &Error{Code: "invalid-spec", Field: "trace.format",
				Reason: fmt.Sprintf("unknown format %q (want json, perfetto, or spans)", t.Format)}
		}
		if t.Limit < 0 {
			return &Error{Code: "invalid-spec", Field: "trace.limit", Reason: "must be non-negative"}
		}
		if t.Flight < 0 {
			return &Error{Code: "invalid-spec", Field: "trace.flight", Reason: "must be non-negative"}
		}
	}
	if s.Report != nil {
		figs := s.Report.Figs
		if len(figs) == 1 && figs[0] == "all" {
			figs = experiment.Names()
		}
		for _, id := range figs {
			if _, ok := experiment.Registry[id]; !ok {
				return &Error{Code: "invalid-spec", Field: "report.figs",
					Reason: fmt.Sprintf("unknown experiment %q", id)}
			}
		}
		s.Report.Figs = figs
	}
	if !s.Metrics && s.Report == nil && s.Trace == nil {
		return &Error{Code: "invalid-spec", Field: "spec",
			Reason: "spec requests no artifacts (set metrics, report, or trace)"}
	}
	return nil
}

// BuildProfile materializes the experiment profile the spec runs
// under; jobs is the daemon's per-run parallelism (never part of the
// scenario — output is identical for any value).
func (s *Spec) BuildProfile(jobs int) (experiment.Profile, error) {
	var p experiment.Profile
	switch s.Profile {
	case "quick":
		p = experiment.Quick
	case "full":
		p = experiment.Full
	default:
		return p, fmt.Errorf("serve: spec not canonical: profile %q", s.Profile)
	}
	p.Jobs = jobs
	if s.Faults != "" {
		plan, err := fault.ParsePlan(s.Faults)
		if err != nil {
			return p, fmt.Errorf("serve: spec not canonical: faults: %w", err)
		}
		p.Fault = plan
	}
	if s.Stoch != "" {
		plan, err := stoch.ParsePlan(s.Stoch)
		if err != nil {
			return p, fmt.Errorf("serve: spec not canonical: stoch: %w", err)
		}
		p.Stoch = plan
	}
	return p, nil
}

// fnum renders a float so that strconv.ParseFloat reads back the exact
// same value — the property canonical plan strings need to be a fixed
// point under parse→render.
func fnum(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// renderFaultPlan rewrites a parsed fault plan as a fully-explicit
// key=value string: parse(render(p)) == p, and behaviorally-inactive
// plans collapse to "" (they are bit-identical to fault-free runs, so
// they must share the fault-free cache line).
func renderFaultPlan(p *fault.Plan) string {
	if !p.Active() {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "seed=%d", p.Seed)
	fmt.Fprintf(&b, ",burstp=%s,burstn=%d", fnum(p.BurstProb), p.BurstSize)
	fmt.Fprintf(&b, ",jitterp=%s,jitterus=%d", fnum(p.JitterProb), int64(p.JitterMax))
	fmt.Fprintf(&b, ",overrunp=%s,overrunfrac=%s", fnum(p.OverrunProb), fnum(p.OverrunFrac))
	fmt.Fprintf(&b, ",casp=%s,casmax=%d", fnum(p.CASProb), p.CASMax)
	fmt.Fprintf(&b, ",stallp=%s,stallus=%d", fnum(p.StallProb), int64(p.StallDur))
	return b.String()
}

// renderStochPlan mirrors renderFaultPlan for stochastic-scheduler
// plans. The distribution has no key=value form, so the canonical
// string leads with its preset.
func renderStochPlan(p *stoch.Plan) string {
	if !p.Active() {
		return ""
	}
	var preset string
	switch p.Dist {
	case stoch.Uniform:
		preset = "uni"
	case stoch.Geometric:
		preset = "geo"
	default:
		return ""
	}
	return fmt.Sprintf("%s,seed=%d,quantumus=%d,pickp=%s",
		preset, p.Seed, int64(p.Quantum), fnum(p.PickProb))
}

// traceArtifactName is the served artifact name of a trace in the
// given format — the filename the batch CLI conformance diff uses too.
func traceArtifactName(format string) string {
	switch format {
	case "json":
		return "trace.json"
	case "perfetto":
		return "trace.perfetto.json"
	default:
		return "trace.spans.txt"
	}
}
