package serve

import (
	"bytes"
	"strings"
	"testing"
)

// mustDecode decodes a spec that the test requires to be valid.
func mustDecode(t *testing.T, src string) *Spec {
	t.Helper()
	s, err := DecodeSpec([]byte(src))
	if err != nil {
		t.Fatalf("DecodeSpec(%s): %v", src, err)
	}
	return s
}

// TestDecodeSpecFixedPoint pins the canonicalization contract: for any
// valid spec, Encode(DecodeSpec(x)) is a fixed point — decoding the
// canonical bytes and re-encoding yields the same bytes.
func TestDecodeSpecFixedPoint(t *testing.T) {
	cases := []string{
		`{"metrics":true}`,
		`{"trace":{}}`,
		`{"trace":{"sim":"multi","mode":"lockbased","format":"spans","limit":100,"flight":64}}`,
		`{"faults":"light","fault_seed":7,"metrics":true}`,
		`{"faults":"heavy","trace":{"flight":256}}`,
		`{"stoch":"geo","stoch_seed":3,"metrics":true}`,
		`{"stoch":"uni","faults":"light","report":{"figs":["all"]}}`,
		`{"profile":"full","metrics":true}`,
		`{"report":{}}`,
	}
	for _, src := range cases {
		first := mustDecode(t, src)
		enc1 := first.Encode()
		second, err := DecodeSpec(enc1)
		if err != nil {
			t.Fatalf("re-decode canonical %q: %v", enc1, err)
		}
		enc2 := second.Encode()
		if !bytes.Equal(enc1, enc2) {
			t.Errorf("spec %s not a fixed point:\n  first:  %s  second: %s", src, enc1, enc2)
		}
	}
}

// TestDecodeSpecDefaults pins the canonical defaults.
func TestDecodeSpecDefaults(t *testing.T) {
	s := mustDecode(t, `{"trace":{}}`)
	if s.Profile != "quick" {
		t.Errorf("default profile = %q, want quick", s.Profile)
	}
	if s.Trace.Sim != "uni" || s.Trace.Mode != "lockfree" || s.Trace.Format != "perfetto" {
		t.Errorf("trace defaults = %s/%s/%s, want uni/lockfree/perfetto",
			s.Trace.Sim, s.Trace.Mode, s.Trace.Format)
	}
}

// TestDecodeSpecSeedFolding: seed overrides are folded into the
// canonical plan string and the override fields zeroed, so the same
// scenario expressed either way shares one cache line.
func TestDecodeSpecSeedFolding(t *testing.T) {
	a := mustDecode(t, `{"faults":"light","fault_seed":7,"metrics":true}`)
	b := mustDecode(t, `{"faults":"`+a.Faults+`","metrics":true}`)
	if a.FaultSeed != 0 {
		t.Errorf("FaultSeed not zeroed after folding: %d", a.FaultSeed)
	}
	if !strings.Contains(a.Faults, "seed=7") {
		t.Errorf("faults plan %q does not fold seed=7", a.Faults)
	}
	if a.CacheKey() != b.CacheKey() {
		t.Errorf("folded and explicit specs have different cache keys:\n  %s\n  %s", a.CacheKey(), b.CacheKey())
	}

	st := mustDecode(t, `{"stoch":"geo","stoch_seed":3,"metrics":true}`)
	if st.StochSeed != 0 || !strings.Contains(st.Stoch, "seed=3") {
		t.Errorf("stoch seed not folded: seed field %d, plan %q", st.StochSeed, st.Stoch)
	}
}

// TestDecodeSpecInactivePlans: behaviorally-inactive plans collapse to
// the empty string — bit-identical to plan-free runs, one cache line.
func TestDecodeSpecInactivePlans(t *testing.T) {
	off := mustDecode(t, `{"faults":"off","stoch":"off","metrics":true}`)
	bare := mustDecode(t, `{"metrics":true}`)
	if off.Faults != "" || off.Stoch != "" {
		t.Errorf("off plans did not collapse: faults=%q stoch=%q", off.Faults, off.Stoch)
	}
	if off.CacheKey() != bare.CacheKey() {
		t.Errorf("off-plan spec and bare spec have different cache keys")
	}
}

// TestDecodeSpecInvalid: every malformed spec decodes to a structured
// *Error naming the field at fault — never a panic, never a bare string.
func TestDecodeSpecInvalid(t *testing.T) {
	cases := []struct {
		src   string
		code  string
		field string
	}{
		{`{`, "invalid-json", ""},
		{`[1,2]`, "invalid-json", ""},
		{`{"metrics":true}{"metrics":true}`, "invalid-json", ""},
		{`{"bogus":1}`, "invalid-json", ""},
		{`{"jobs":4,"metrics":true}`, "invalid-json", ""}, // jobs is operational, not part of a scenario
		{`{"profile":"huge","metrics":true}`, "invalid-spec", "profile"},
		{`{"faults":"bogus=1","metrics":true}`, "invalid-spec", "faults"},
		{`{"stoch":"bogus=1","metrics":true}`, "invalid-spec", "stoch"},
		{`{"trace":{"sim":"hexa"}}`, "invalid-spec", "trace.sim"},
		{`{"trace":{"mode":"optimistic"}}`, "invalid-spec", "trace.mode"},
		{`{"trace":{"format":"xml"}}`, "invalid-spec", "trace.format"},
		{`{"trace":{"limit":-1}}`, "invalid-spec", "trace.limit"},
		{`{"trace":{"flight":-1}}`, "invalid-spec", "trace.flight"},
		{`{"report":{"figs":["nope"]}}`, "invalid-spec", "report.figs"},
		{`{}`, "invalid-spec", "spec"},
		{`{"faults":"light"}`, "invalid-spec", "spec"}, // plan but no artifact requested
	}
	for _, tc := range cases {
		s, err := DecodeSpec([]byte(tc.src))
		if err == nil {
			t.Errorf("DecodeSpec(%s) = %+v, want error", tc.src, s)
			continue
		}
		if err.Code != tc.code || err.Field != tc.field {
			t.Errorf("DecodeSpec(%s) error = code %q field %q, want %q/%q (reason: %s)",
				tc.src, err.Code, err.Field, tc.code, tc.field, err.Reason)
		}
		if err.Error() == "" {
			t.Errorf("DecodeSpec(%s): empty Error() text", tc.src)
		}
	}
}

// TestCacheKeyDiscriminates: distinct scenarios get distinct keys, and
// the key embeds the artifact-code version.
func TestCacheKeyDiscriminates(t *testing.T) {
	a := mustDecode(t, `{"metrics":true}`)
	c := mustDecode(t, `{"metrics":true,"faults":"light"}`)
	if a.CacheKey() == c.CacheKey() {
		t.Errorf("distinct scenarios share a cache key:\n  %s\n  %s", a.CacheKey(), c.CacheKey())
	}
	if !strings.HasSuffix(a.CacheKey(), "|"+Version) {
		t.Errorf("cache key %q does not embed version %q", a.CacheKey(), Version)
	}
}

// TestBuildProfileJobsInvariance: the jobs knob lands in the profile but
// never in the canonical bytes — the spec is the scenario, jobs is the
// daemon's business.
func TestBuildProfileJobsInvariance(t *testing.T) {
	s := mustDecode(t, `{"faults":"light","metrics":true}`)
	p1, err := s.BuildProfile(1)
	if err != nil {
		t.Fatalf("BuildProfile(1): %v", err)
	}
	p4, err := s.BuildProfile(4)
	if err != nil {
		t.Fatalf("BuildProfile(4): %v", err)
	}
	if p1.Jobs != 1 || p4.Jobs != 4 {
		t.Errorf("jobs not applied: %d, %d", p1.Jobs, p4.Jobs)
	}
	if p1.Fault == nil || !p1.Fault.Active() {
		t.Errorf("fault plan not materialized")
	}
}
