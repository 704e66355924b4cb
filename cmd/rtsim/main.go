// Command rtsim regenerates the paper's tables and figures. Each
// experiment id corresponds to one figure/theorem of the evaluation (see
// DESIGN.md's per-experiment index):
//
//	rtsim -list
//	rtsim fig9
//	rtsim -profile quick fig8 fig12
//	rtsim -jobs 4 all
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"

	"repro/internal/artifact"
	"repro/internal/experiment"
	"repro/internal/fault"
	"repro/internal/stoch"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its dependencies injected, so the end-to-end
// determinism test can execute the full CLI twice and diff its output.
// Everything written to stdout and stderr is a pure function of the
// flags and experiment ids: rtsim never reads the wall clock.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rtsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	profile := fs.String("profile", "full", "experiment profile: full or quick")
	list := fs.Bool("list", false, "list experiment ids and exit")
	format := fs.String("format", "text", "output format: text or csv")
	jobs := fs.Int("jobs", runtime.GOMAXPROCS(0), "simulation runs to execute in parallel (output is identical for any value)")
	traceFile := fs.String("trace", "", "run the canonical trace workload and write its trace to `file`")
	traceFormat := fs.String("trace-format", "perfetto", "trace file format: json, perfetto, or spans")
	traceSim := fs.String("trace-sim", experiment.TraceSimUni, "traced simulator: uni, multi, or global")
	traceMode := fs.String("trace-mode", "lockfree", "traced synchronization mode: lockfree or lockbased")
	traceLimit := fs.Int("trace-limit", 0, "keep at most `n` trace events (0 = unbounded); drops are counted, never silent")
	flight := fs.Int("flight", 0, "attach a flight recorder retaining the last `n` events to the traced run; dumps FILE.flight.json on the first anomaly")
	progress := fs.Bool("progress", false, "print deterministic virtual-time progress lines to stderr during the traced run")
	checkBounds := fs.Bool("check-bounds", false, "run the Theorem 2/3 bound-check suite; exit 1 on any violation")
	faults := fs.String("faults", "", "inject a deterministic fault plan into traced runs: off, light, heavy, or key=value pairs (see internal/fault)")
	faultSeed := fs.Int64("fault-seed", 0, "override the fault plan's seed (0 keeps the plan's own)")
	stochPlan := fs.String("stoch", "", "overlay the seeded stochastic scheduler on traced runs: off, uni, geo, or key=value pairs (see internal/stoch)")
	stochSeed := fs.Int64("stoch-seed", 0, "override the stochastic plan's seed (0 keeps the plan's own)")
	reportDir := fs.String("report", "", "write the canonical-workload CSV+HTML report into `dir` (experiment args become its figure sections)")
	metrics := fs.Bool("metrics", false, "print the canonical-workload metrics digest")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to `file`")
	memProfile := fs.String("memprofile", "", "write a heap profile to `file` on exit")
	fs.Usage = func() {
		fmt.Fprintf(stderr, `usage: rtsim [flags] <experiment>... | all
       rtsim [flags] -trace FILE [-trace-format json|perfetto|spans]
       rtsim [flags] -check-bounds
       rtsim [flags] -metrics
       rtsim [flags] -report DIR [<experiment>...]

flags:
  -profile full|quick  experiment scale: full (paper-scale horizons, 5
                       seeds) or quick (short horizons, 1 seed)
  -jobs N              run up to N independent simulations in parallel
                       (default: one per CPU); rendered tables are
                       byte-identical for any N
  -format text|csv     table output format
  -list                list experiment ids and exit

observability:
  -trace FILE          run the canonical trace workload fully observed
                       and write the trace to FILE
  -trace-format FMT    json (raw events), perfetto (open the file at
                       ui.perfetto.dev), or spans (per-job text)
  -trace-sim SIM       uni (default), multi (partitioned), or global
  -trace-mode MODE     lockfree (default) or lockbased
  -trace-limit N       keep at most N trace events (0 = unbounded); the
                       drop count is reported on stdout, never silent
  -flight N            bounded flight recorder: retain the last N events
                       of the traced run and dump them to FILE.flight.json
                       the moment the first anomaly (shed or fault-induced
                       abort) occurs
  -progress            stream deterministic progress lines (virtual time,
                       commits, retries, attempt p99, live jobs, flight
                       occupancy) to stderr while the traced run executes
  -check-bounds        check observed retries and sojourns against the
                       Theorem 2/3 bounds across the trace suite; any
                       violation exits 1
  -faults PLAN         inject a seeded, deterministic fault plan (arrival
                       bursts/jitter, execution overruns, phantom CAS
                       failures, scheduler stalls) into every traced run:
                       off, light, heavy, or comma-separated key=value
                       pairs (seed, burstp, burstn, jitterp, jitterus,
                       overrunp, overrunfrac, casp, casmax, stallp,
                       stallus, intensity); bound checks re-run against
                       the plan's inflated arrival curves and flag
                       model-exceeding violations as expected
  -fault-seed N        override the fault plan's seed (0 keeps it)
  -stoch PLAN          overlay the seeded stochastic scheduler on every
                       traced run: quanta drawn from a uniform or
                       geometric distribution force preemptions, and
                       random picks (or ranked-list shuffles on the
                       global engine) perturb dispatch; off, uni, geo,
                       or comma-separated key=value pairs (seed,
                       quantumus, pickp); every decision is a pure hash
                       of (seed, cpu, tick), so output stays
                       byte-identical for any -jobs value
  -stoch-seed N        override the stochastic plan's seed (0 keeps it)
  -metrics             fold the canonical workload on every simulator ×
                       mode into distribution digests (p50/p95/p99/max
                       vs the Theorem 2/3 bounds) and print them; like
                       -report and -check-bounds, it folds each run
                       online as the engine emits events, in memory
                       bounded by live jobs and series windows
  -report DIR          write the full report into DIR: per-distribution
                       and per-window CSVs plus a self-contained
                       report.html; experiment args listed after the
                       flags become the report's figure sections
  -cpuprofile FILE     write a CPU profile of the whole invocation
  -memprofile FILE     write a heap profile on exit

experiments:
`)
		for _, n := range experiment.Names() {
			fmt.Fprintf(stderr, "  %s\n", n)
		}
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, n := range experiment.Names() {
			fmt.Fprintln(stdout, n)
		}
		return 0
	}
	var p experiment.Profile
	switch *profile {
	case "full":
		p = experiment.Full
	case "quick":
		p = experiment.Quick
	default:
		fmt.Fprintf(stderr, "rtsim: unknown profile %q\n", *profile)
		return 2
	}
	p.Jobs = *jobs
	if *faults != "" {
		plan, err := fault.ParsePlan(*faults)
		if err != nil {
			fmt.Fprintf(stderr, "rtsim: %v\n", err)
			return 2
		}
		if *faultSeed != 0 && plan != nil {
			plan.Seed = *faultSeed
		}
		p.Fault = plan
	}
	if *stochPlan != "" {
		plan, err := stoch.ParsePlan(*stochPlan)
		if err != nil {
			fmt.Fprintf(stderr, "rtsim: %v\n", err)
			return 2
		}
		if *stochSeed != 0 && plan != nil {
			plan.Seed = *stochSeed
		}
		p.Stoch = plan
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(stderr, "rtsim: cpuprofile: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(stderr, "rtsim: cpuprofile: %v\n", err)
			f.Close()
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(stderr, "rtsim: memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle allocations so the heap profile reflects live data
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(stderr, "rtsim: memprofile: %v\n", err)
			}
		}()
	}

	exitCode := 0
	if *traceFile != "" {
		if err := writeTrace(p, *traceFile, *traceFormat, *traceSim, *traceMode, *traceLimit, *flight, *progress, stdout, stderr); err != nil {
			fmt.Fprintf(stderr, "rtsim: trace: %v\n", err)
			return 1
		}
	}
	if *checkBounds {
		report, ok, err := experiment.CheckBounds(p)
		if err != nil {
			fmt.Fprintf(stderr, "rtsim: check-bounds: %v\n", err)
			return 1
		}
		fmt.Fprint(stdout, report)
		if !ok {
			exitCode = 1
		}
	}

	args = fs.Args()
	if *metrics || *reportDir != "" {
		// Positional args are the report's figure sections, not a
		// separate experiment run; "all" means every registered one.
		figIDs := args
		if len(args) == 1 && args[0] == "all" {
			figIDs = experiment.Names()
		}
		if *metrics {
			// The digest skips the figure sweeps: it is the fast look.
			digest, err := artifact.BuildMetrics(p)
			if err != nil {
				fmt.Fprintf(stderr, "rtsim: metrics: %v\n", err)
				return 1
			}
			if _, err := stdout.Write(digest); err != nil {
				fmt.Fprintf(stderr, "rtsim: metrics: %v\n", err)
				return 1
			}
		}
		if *reportDir != "" {
			if err := writeReport(p, *reportDir, figIDs, stdout); err != nil {
				fmt.Fprintf(stderr, "rtsim: report: %v\n", err)
				return 1
			}
		}
		return exitCode
	}
	if len(args) == 0 {
		if *traceFile != "" || *checkBounds {
			return exitCode
		}
		fs.Usage()
		return 2
	}
	ids := args
	if len(args) == 1 && args[0] == "all" {
		ids = experiment.Names()
	}

	for _, id := range ids {
		runExp, ok := experiment.Registry[id]
		if !ok {
			fmt.Fprintf(stderr, "rtsim: unknown experiment %q (try -list)\n", id)
			return 2
		}
		tables, err := runExp(p)
		for _, t := range tables {
			if *format == "csv" {
				fmt.Fprintln(stdout, t.RenderCSV())
			} else {
				fmt.Fprintln(stdout, t.Render())
			}
		}
		if err != nil {
			fmt.Fprintf(stderr, "rtsim: %s: %v\n", id, err)
			exitCode = 1
		}
	}
	return exitCode
}

// writeReport builds the canonical-workload report via the shared
// artifact path — the same bytes the rtsimd daemon serves — and writes
// every file into dir. The stdout listing and every file are
// byte-identical for any -jobs value.
func writeReport(p experiment.Profile, dir string, figIDs []string, stdout io.Writer) error {
	set, err := artifact.BuildReportSet(p, figIDs)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, f := range set.Files {
		if err := os.WriteFile(filepath.Join(dir, f.Name), f.Data, 0o644); err != nil {
			return err
		}
	}
	fmt.Fprintf(stdout, "report: profile=%s runs=%d figs=%d files=%d dir=%s\n",
		p.Name, set.Runs, set.Figs, len(set.Files), dir)
	for _, n := range set.Names() {
		fmt.Fprintf(stdout, "  %s\n", n)
	}
	return nil
}

// writeTrace runs one fully-observed canonical-workload simulation via
// the shared artifact path — the same bytes the rtsimd daemon serves —
// and writes the trace (plus any flight dump) to disk. The stdout
// summary, the trace file, and the flight dump are pure functions of
// (profile, sim, mode, limit, flight): byte-identical for any -jobs
// value. Only -progress touches stderr.
func writeTrace(p experiment.Profile, file, format, simName, mode string, limit, flight int, progress bool, stdout, stderr io.Writer) error {
	o := artifact.TraceOptions{Sim: simName, Mode: mode, Format: format, Limit: limit, Flight: flight}
	if progress {
		o.Progress = stderr
	}
	t, err := artifact.BuildTrace(p, o)
	if err != nil {
		return err
	}
	if err := os.WriteFile(file, t.Data, 0o644); err != nil {
		return err
	}
	dumpFile := file + ".flight.json"
	if t.FlightDump != nil {
		if err := os.WriteFile(dumpFile, t.FlightDump, 0o644); err != nil {
			return err
		}
	}
	fmt.Fprint(stdout, t.Summary(file, dumpFile))
	return nil
}
