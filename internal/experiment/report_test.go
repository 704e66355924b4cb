package experiment

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata/")

// checkGolden compares got with testdata/name, rewriting the file
// instead under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s differs from its golden:\n--- got\n%s\n--- want\n%s", path, got, want)
	}
}

// testReportProfile is Quick with two seeds so cross-seed merging is
// actually exercised.
func testReportProfile(jobs int) Profile {
	p := Quick
	p.Seeds = []int64{1, 2}
	p.Jobs = jobs
	return p
}

// TestBuildReport is the acceptance check: the observed retry histogram
// of every lock-free uni/multi run stays under its Theorem 2 bound, the
// bound is attached to the retry distribution, and sections for every
// simulator × mode exist.
func TestBuildReport(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full trace grid")
	}
	rep, err := BuildReport(testReportProfile(0), []string{"costs"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Runs) != len(reportCombos) {
		t.Fatalf("runs = %d, want %d", len(rep.Runs), len(reportCombos))
	}
	for i := range rep.Runs {
		run := &rep.Runs[i]
		if run.Jobs == 0 || run.Completed == 0 {
			t.Fatalf("%s: no jobs traced (jobs=%d completed=%d)", run.Name, run.Jobs, run.Completed)
		}
		if len(run.Seeds) != 2 {
			t.Fatalf("%s: seeds = %v", run.Name, run.Seeds)
		}
		if run.Series == nil || len(run.Series.Points) == 0 {
			t.Fatalf("%s: no series", run.Name)
		}
		retries := run.Dists[0]
		if retries.Name != "retries" {
			t.Fatalf("%s: first dist = %q", run.Name, retries.Name)
		}
		switch {
		case run.Sim == TraceSimGlobal:
			if run.Check != nil || retries.Bound != -1 {
				t.Fatalf("%s: global runs must carry no Theorem 2 bound", run.Name)
			}
		case run.Mode == "lock-based":
			if retries.Bound != -1 {
				t.Fatalf("%s: lock-based retry bound = %d, want none", run.Name, retries.Bound)
			}
			if run.Check == nil {
				t.Fatalf("%s: missing bound check", run.Name)
			}
		default: // uni/multi lock-free: the paper's Theorem 2 claim
			if retries.Bound < 0 {
				t.Fatalf("%s: missing Theorem 2 bound", run.Name)
			}
			if max := retries.Hist.Max(); max > retries.Bound {
				t.Fatalf("%s: observed max retries %d exceeds Theorem 2 bound %d", run.Name, max, retries.Bound)
			}
			if len(run.Violations()) != 0 {
				t.Fatalf("%s: violations %v", run.Name, run.Violations())
			}
		}
	}
	if len(rep.Figs) != 1 || rep.Figs[0].ID != "costs" {
		t.Fatalf("figs = %+v", rep.Figs)
	}
}

// TestBuildReportJobsInvariant: the rendered artifacts are byte-equal
// for serial and parallel execution.
func TestBuildReportJobsInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the trace grid twice")
	}
	render := func(jobs int) (string, string) {
		rep, err := BuildReport(testReportProfile(jobs), nil)
		if err != nil {
			t.Fatal(err)
		}
		var txt, html bytes.Buffer
		if err := rep.WriteText(&txt); err != nil {
			t.Fatal(err)
		}
		if err := rep.WriteHTML(&html); err != nil {
			t.Fatal(err)
		}
		return txt.String(), html.String()
	}
	txt1, html1 := render(1)
	txt4, html4 := render(4)
	if txt1 != txt4 {
		t.Fatalf("-metrics digest differs between -jobs 1 and 4:\n%s\n---\n%s", txt1, txt4)
	}
	if html1 != html4 {
		t.Fatal("HTML report differs between -jobs 1 and 4")
	}
}

// reportGolden builds the report for one streamProfiles entry at the
// given -jobs value and compares its -metrics digest in full, and its
// HTML by SHA-256, against the committed goldens for that profile.
func reportGolden(t *testing.T, name string, jobs int) {
	t.Helper()
	p := streamProfiles(t)[name]
	p.Jobs = jobs
	rep, err := BuildReport(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	var txt, html bytes.Buffer
	if err := rep.WriteText(&txt); err != nil {
		t.Fatal(err)
	}
	if err := rep.WriteHTML(&html); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(html.Bytes())
	checkGolden(t, "report_"+name+".metrics.golden", txt.Bytes())
	checkGolden(t, "report_"+name+".html.sha256", []byte(hex.EncodeToString(sum[:])+"\n"))
}

// TestStreamReportMatchesBatch pins every fold the streaming report
// runs — the span fold behind the histograms, the series fold behind
// the throughput panel, the ops fold behind the retry-tail panel, and
// the check fold behind the violation tables — to the bytes the
// record-and-replay (batch) builder rendered, committed as goldens:
// plain, under fault injection, and under stochastic scheduling.
func TestStreamReportMatchesBatch(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the trace grid once per profile")
	}
	for _, name := range []string{"plain", "fault", "stoch"} {
		t.Run(name, func(t *testing.T) { reportGolden(t, name, 1) })
	}
}

// TestStreamReportJobsInvariant: the report fans out on runner.Map; at
// -jobs 4 every profile must render the same goldens as at -jobs 1.
func TestStreamReportJobsInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the trace grid once per profile")
	}
	for _, name := range []string{"plain", "fault", "stoch"} {
		t.Run(name, func(t *testing.T) { reportGolden(t, name, 4) })
	}
}
