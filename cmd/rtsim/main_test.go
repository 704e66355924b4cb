package main

import (
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// TestGoldenDeterminismAcrossJobs is the end-to-end complement of
// experiment.TestParallelDeterminism: instead of comparing one
// experiment's rendered tables in-process, it drives the full rtsim CLI
// twice — sequential vs one worker per CPU — and requires the complete
// stdout and stderr byte streams to be identical. This catches anything
// the per-experiment check cannot see: flag plumbing, table ordering
// across experiments, and stray timing or host-dependent text on either
// stream.
// lockdisc is included deliberately: it sweeps the PIP scheduler, whose
// urgency propagation once iterated a Go map and silently tied charged
// ops to iteration order.
func TestGoldenDeterminismAcrossJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("quick-profile sweeps are still a few seconds; skipped with -short")
	}
	exps := []string{"thm3", "lockdisc"}
	render := func(jobs int) (stdout, stderr string) {
		t.Helper()
		var out, errb strings.Builder
		args := append([]string{"-profile", "quick", "-jobs", strconv.Itoa(jobs)}, exps...)
		if code := run(args, &out, &errb); code != 0 {
			t.Fatalf("rtsim -jobs %d exited %d\nstderr: %s", jobs, code, errb.String())
		}
		return out.String(), errb.String()
	}
	seq, seqErr := render(1)
	par, parErr := render(runtime.NumCPU())
	if seq != par {
		t.Fatalf("rtsim stdout differs between -jobs 1 and -jobs %d:\n--- jobs=1 ---\n%s\n--- jobs=%d ---\n%s",
			runtime.NumCPU(), seq, runtime.NumCPU(), par)
	}
	if seqErr != parErr {
		t.Fatalf("rtsim stderr differs between -jobs 1 and -jobs %d:\n--- jobs=1 ---\n%s\n--- jobs=%d ---\n%s",
			runtime.NumCPU(), seqErr, runtime.NumCPU(), parErr)
	}
	if strings.Contains(seq, "finished in") {
		t.Fatalf("wall-clock timing leaked onto stdout:\n%s", seq)
	}
}

// TestFaultDeterminismAcrossJobs drives the fault-injection surface
// end to end: the faults sweep, the bound-check suite, and a traced run
// under the heavy plan must produce byte-identical stdout for -jobs 1
// and one worker per CPU. Injection decisions are pure hashes of
// (plan seed, task, indices), so parallel fan-out must not change a
// single byte.
func TestFaultDeterminismAcrossJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("quick-profile sweeps are still a few seconds; skipped with -short")
	}
	render := func(jobs int) string {
		t.Helper()
		var out, errb strings.Builder
		args := []string{"-profile", "quick", "-jobs", strconv.Itoa(jobs),
			"-faults", "heavy", "-fault-seed", "7", "-check-bounds", "faults"}
		if code := run(args, &out, &errb); code != 0 {
			t.Fatalf("rtsim -jobs %d exited %d\nstderr: %s", jobs, code, errb.String())
		}
		return out.String()
	}
	seq := render(1)
	par := render(runtime.NumCPU())
	if seq != par {
		t.Fatalf("fault-run stdout differs between -jobs 1 and -jobs %d:\n--- jobs=1 ---\n%s\n--- jobs=%d ---\n%s",
			runtime.NumCPU(), seq, runtime.NumCPU(), par)
	}
}

// TestFaultsOffBitIdentical pins the zero-intensity guarantee: an
// explicit "-faults off" plan must reproduce the fault-free run
// bit for bit — every injection hook must be a true no-op, not a
// near-miss that perturbs RNG or slice identity.
func TestFaultsOffBitIdentical(t *testing.T) {
	render := func(extra ...string) string {
		t.Helper()
		var out, errb strings.Builder
		args := append([]string{"-profile", "quick", "-check-bounds"}, extra...)
		if code := run(args, &out, &errb); code != 0 {
			t.Fatalf("rtsim %v exited %d\nstderr: %s", extra, code, errb.String())
		}
		return out.String()
	}
	plain := render()
	off := render("-faults", "off")
	if plain != off {
		t.Fatalf("-faults off diverged from the fault-free run:\n--- plain ---\n%s\n--- off ---\n%s", plain, off)
	}
}

// TestListStdout keeps -list on stdout and stable.
func TestListStdout(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-list"}, &out, &errb); code != 0 {
		t.Fatalf("rtsim -list exited %d, stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "lockdisc") {
		t.Errorf("rtsim -list missing lockdisc:\n%s", out.String())
	}
}
