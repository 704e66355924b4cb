package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"repro/internal/experiment"
)

// sweepDigest pins the sweep's table text: the SHA-256 of every sweep
// id's rendered tables, in sweepIDs order, at the quick profile. Tables
// are byte-identical for any Jobs value, any order of the ids and any
// host, so every pass everywhere must render exactly this.
const sweepDigest = "b1f0c82ea1601498badda1c7f6a75c2bc53815cf107ec6bda7b9346b9af3ccc2"

// sweepOrder is the order a pass runs the ids in: a permutation drawn
// from the workload seed. The suite itself is fixed — it is the paper's
// quick-profile evaluation, whose output is pinned — so the seed varies
// what runs next to what (heap state, worker hand-offs), not the tables.
func sweepOrder(seed int64) []string {
	ids := sweepIDs()
	rand.New(rand.NewSource(seed)).Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	return ids
}

// sweepPass runs every id once in the given order and returns the digest
// of all rendered tables in sweepIDs order. When perID is non-nil it
// accumulates each id's wall time.
func sweepPass(p experiment.Profile, order []string, perID map[string]time.Duration) (string, error) {
	text := map[string]string{}
	for _, id := range order {
		t0 := time.Now()
		tables, err := experiment.Registry[id](p)
		if perID != nil {
			perID[id] += time.Since(t0)
		}
		if err != nil {
			return "", fmt.Errorf("%s: %w", id, err)
		}
		var b strings.Builder
		for _, t := range tables {
			b.WriteString(t.Render())
		}
		text[id] = b.String()
	}
	h := sha256.New()
	for _, id := range sweepIDs() {
		_, _ = io.WriteString(h, text[id])
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// runSweep measures whole passes over the paper's experiment suite.
func runSweep(cfg config) (*outcome, error) {
	out := newOutcome()
	p := experiment.Quick
	p.Jobs = cfg.nproc
	order := sweepOrder(cfg.seed)
	check := func(what string, d string, err error) {
		out.attempted++
		if err != nil {
			out.fail(cfg, "sweep %s: %v", what, err)
		} else if d != sweepDigest {
			out.fail(cfg, "sweep %s digest %s != pinned %s", what, d, sweepDigest)
		}
	}

	// Set-up: one warm-up pass, repeated.
	var setups []time.Duration
	for i := 0; i < setupRepeats; i++ {
		c0 := cpuTime()
		d, err := sweepPass(p, order, nil)
		setups = append(setups, cpuTime()-c0)
		check("warm-up pass", d, err)
	}

	type measured struct {
		passes    latencies
		cpuPasses latencies
		alloc     uint64
		perID     map[string]time.Duration
		cpu, wall time.Duration
		shares    map[string]float64
	}
	measure := func(window time.Duration, traced bool) (*measured, error) {
		ph := &measured{passes: newLatencies(), cpuPasses: newLatencies(), perID: map[string]time.Duration{}}
		var prof *cpuProfile
		if traced {
			var err error
			if prof, err = startCPUProfile(); err != nil {
				return nil, err
			}
		}
		cpu0, start := cpuTime(), time.Now()
		for time.Since(start) < window {
			var ms0, ms1 runtime.MemStats
			runtime.ReadMemStats(&ms0)
			t0, c0 := time.Now(), cpuTime()
			d, err := sweepPass(p, order, ph.perID)
			ph.passes.add(time.Since(t0))
			ph.cpuPasses.add(cpuTime() - c0)
			runtime.ReadMemStats(&ms1)
			ph.alloc += ms1.TotalAlloc - ms0.TotalAlloc
			check("pass", d, err)
		}
		ph.cpu, ph.wall = cpuTime()-cpu0, time.Since(start)
		if prof != nil {
			var err error
			if ph.shares, err = prof.stop(); err != nil {
				return nil, err
			}
		}
		return ph, nil
	}

	window := cfg.window
	if cfg.trace {
		window /= 2
	}
	plain, err := measure(window, false)
	if err != nil {
		return nil, err
	}

	// The tables must not depend on the worker count either.
	p1 := p
	p1.Jobs = 1
	d, err := sweepPass(p1, order, nil)
	check("Jobs=1 pass", d, err)

	fmt.Fprintf(cfg.log, "sweep: ids=%d jobs=%d order=%v\n", len(order), p.Jobs, order)
	fmt.Fprintf(cfg.log, "sweep_s %.4f s (p50 of %d passes, p99 %.4f s)\n",
		plain.passes.ms(0.5)/1e3, plain.passes.n(), plain.passes.ms(0.99)/1e3)
	out.e2e["setup_s"] = metric{medianDur(setups).Seconds(), "s"}
	out.e2e["op_cpu_ms"] = metric{plain.cpuPasses.ms(0.5), "ms"}
	out.e2e["op_alloc_mb"] = metric{float64(plain.alloc) / 1e6 / float64(plain.passes.n()), "MB"}
	out.e2e["ok_frac"] = metric{okFrac(out), "frac"}

	if cfg.trace {
		tr, err := measure(window, true)
		if err != nil {
			return nil, err
		}
		for _, id := range sweepIDs() {
			out.layer["experiment."+id+"_s"] = metric{tr.perID[id].Seconds() / float64(tr.passes.n()), "s"}
		}
		out.layer["runner.cpu_util"] = metric{tr.cpu.Seconds() / (tr.wall.Seconds() * float64(p.Jobs)), "frac"}
		for b, s := range tr.shares {
			out.layer[b+".cpu_share"] = metric{s, "frac"}
		}
		out.layer["wall.op_p50_ms"] = metric{plain.passes.ms(0.5), "ms"}
		out.layer["trace.overhead_frac"] = metric{tr.cpuPasses.ms(0.5)/plain.cpuPasses.ms(0.5) - 1, "frac"}
	}
	return out, nil
}

// okFrac is the share of attempted operations that did not fail.
func okFrac(o *outcome) float64 {
	if o.attempted == 0 {
		return 0
	}
	return float64(o.attempted-o.failed) / float64(o.attempted)
}
