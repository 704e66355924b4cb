// Command perfbench is the repository's benchmark: it measures what this
// program costs to run, end to end and layer by layer, on three
// workloads that stress different layers:
//
//   - sweep: one pass of every experiment.Registry id except scale, at
//     the quick profile (the paper-sized task sets; RUA dominates);
//   - scale: the clustered n=10⁴ ScaleWorkload through the uni, multi
//     and global engines, lock-free and lock-based (the timing wheel and
//     the engine step dominate);
//   - serve: the rtsimd serving layer on loopback, driven open loop with
//     cache-missing trace and metrics specs plus cache-hitting repeats.
//
// Usage (from the repository root, normally through perfbench/run.sh,
// which builds this package first):
//
//	perfbench --workload sweep|scale|serve --seed N --seconds S --trace 0|1
//
// With --trace 0 the run measures the end-to-end metrics with nothing
// extra attached. With --trace 1 the measuring window is split in two:
// the first half runs untraced, the second half with every layer probe
// on (a CPU profile, the timing scheduler wrapper, the timing observer),
// and the run prints the per-layer metrics plus the tracing overhead —
// the traced half's CPU time per operation over the untraced half's.
//
// Every run checks its outputs (table digests, exact engine counters,
// byte-identical served artifacts, daemon accounting). The last line of
// standard output is one JSON object with the keys correct, attempted,
// failed and metrics; any failed correctness check makes the command
// exit 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is what every workload runs with.
type config struct {
	seed   int64
	window time.Duration
	trace  bool
	nproc  int
	log    io.Writer // human-readable lines
}

// outcome is a workload's measurement: the four end-to-end metrics
// (untraced half or whole window), the per-layer metrics it reaches
// (traced half), and its operation and check accounting. Every wrong
// output is also a failed operation; a failed operation whose output was
// right (a refused or late request) leaves the run correct.
type outcome struct {
	attempted, failed, wrong int64
	e2e                      map[string]metric
	layer                    map[string]metric
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]metric{}, layer: map[string]metric{}}
}

// fail records one operation or check whose output was wrong.
func (o *outcome) fail(cfg config, format string, args ...any) {
	o.failed++
	o.wrong++
	fmt.Fprintf(cfg.log, "CHECK FAILED: "+format+"\n", args...)
}

// miss records one operation that was refused or missed its latency
// limit; it counts against ok_frac but not against correctness.
func (o *outcome) miss(cfg config, format string, args ...any) {
	o.failed++
	fmt.Fprintf(cfg.log, "MISSED: "+format+"\n", args...)
}

// workloads maps a --workload name to its runner.
var workloads = map[string]func(config) (*outcome, error){
	"sweep": runSweep,
	"scale": runScale,
	"serve": runServe,
}

// setupRepeats is how many times the sweep and scale workloads set up;
// setup_s is the median, so one slow set-up (a page-fault storm, a GC)
// does not move it.
const setupRepeats = 3

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: sweep, scale or serve")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 10, "measuring window in seconds")
	traceFlag := fs.Int("trace", 0, "1 runs the traced half and prints per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload sweep|scale|serve, --seconds >= 1, --trace 0|1\n")
		return 2
	}
	cfg := config{
		seed:   *seed,
		window: time.Duration(*seconds) * time.Second,
		trace:  *traceFlag == 1,
		nproc:  runtime.NumCPU(),
		log:    stdout,
	}
	fmt.Fprintf(stdout, "perfbench: workload=%s seed=%d seconds=%d trace=%d nproc=%d %s/%s %s\n",
		*name, cfg.seed, *seconds, *traceFlag, cfg.nproc, runtime.GOOS, runtime.GOARCH, runtime.Version())
	out, err := wl(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	res := result{Correct: out.wrong == 0, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metric{}}
	names, src := endToEnd, out.e2e
	if cfg.trace {
		names, src = perLayerNames(), out.layer
	}
	for _, n := range names {
		m, ok := src[n]
		if !ok {
			// A layer this workload never reaches: its work is zero.
			m = metric{Value: 0, Unit: unitOf(n)}
		}
		res.Metrics[n] = m
	}
	printTable(stdout, res.Metrics)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct || res.Attempted < 1 {
		return 1
	}
	return 0
}

// printTable prints every reported metric, one per line, sorted by name.
func printTable(w io.Writer, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-34s %16.6f %s\n", n, ms[n].Value, ms[n].Unit)
	}
}
