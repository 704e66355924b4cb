package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// runTraceCLI drives the full CLI with -trace/-check-bounds flags and
// returns (stdout, trace file bytes).
func runTraceCLI(t *testing.T, dir string, jobs int, extra ...string) (string, []byte) {
	t.Helper()
	file := filepath.Join(dir, "trace.out")
	var out, errb strings.Builder
	args := append([]string{
		"-profile", "quick", "-jobs", strconv.Itoa(jobs), "-trace", file,
	}, extra...)
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("rtsim %v exited %d\nstderr: %s", args, code, errb.String())
	}
	buf, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	return out.String(), buf
}

// TestTraceDeterminismAcrossJobs requires the -trace file and its stdout
// summary, and the -check-bounds report, to be byte-identical between
// -jobs 1 and one worker per CPU, for every simulator and format.
func TestTraceDeterminismAcrossJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("traced quick-profile runs take a few seconds; skipped with -short")
	}
	par := runtime.NumCPU()
	for _, sim := range []string{"uni", "multi", "global"} {
		for _, format := range []string{"perfetto", "spans", "json"} {
			t.Run(sim+"/"+format, func(t *testing.T) {
				extra := []string{"-trace-sim", sim, "-trace-format", format}
				out1, buf1 := runTraceCLI(t, t.TempDir(), 1, extra...)
				out2, buf2 := runTraceCLI(t, t.TempDir(), par, extra...)
				if out1 != out2 {
					t.Fatalf("stdout differs between -jobs 1 and -jobs %d:\n%s\n---\n%s", par, out1, out2)
				}
				if string(buf1) != string(buf2) {
					t.Fatalf("trace file differs between -jobs 1 and -jobs %d", par)
				}
				if format == "perfetto" || format == "json" {
					var v any
					if err := json.Unmarshal(buf1, &v); err != nil {
						t.Fatalf("%s output is not valid JSON: %v", format, err)
					}
				}
			})
		}
	}
}

// TestCheckBoundsCLI runs the quick-profile bound-check suite end to
// end, plain and under fault injection: it must pass (exit 0) and
// render the committed golden report for any -jobs value.
func TestCheckBoundsCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("the bound-check suite runs eight traced simulations; skipped with -short")
	}
	for _, faults := range []string{"", "heavy"} {
		golden := "check_bounds_quick.golden"
		args := []string{"-profile", "quick", "-check-bounds"}
		if faults != "" {
			golden = "check_bounds_quick_faults_" + faults + ".golden"
			args = append(args, "-faults", faults)
		}
		for _, jobs := range []int{1, runtime.NumCPU()} {
			var out, errb strings.Builder
			args := append([]string{"-jobs", strconv.Itoa(jobs)}, args...)
			if code := run(args, &out, &errb); code != 0 {
				t.Fatalf("rtsim %v exited %d\nstdout: %s\nstderr: %s", args, code, out.String(), errb.String())
			}
			checkGolden(t, golden, out.String())
		}
	}
}

// TestTraceBadFlags covers the CLI's trace flag validation.
func TestTraceBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-profile", "quick", "-trace", filepath.Join(t.TempDir(), "x"), "-trace-format", "bogus"},
		{"-profile", "quick", "-trace", filepath.Join(t.TempDir(), "x"), "-trace-sim", "bogus"},
		{"-profile", "quick", "-trace", filepath.Join(t.TempDir(), "x"), "-trace-mode", "bogus"},
	} {
		var out, errb strings.Builder
		if code := run(args, &out, &errb); code != 1 {
			t.Errorf("rtsim %v exited %d, want 1\nstderr: %s", args, code, errb.String())
		}
	}
}
