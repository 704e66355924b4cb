package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"time"

	"repro/internal/experiment"
	"repro/internal/obs"
	"repro/internal/rtime"
	"repro/internal/runner"
	"repro/internal/serve"
	"repro/internal/trace"
)

// Serve workload shape. A client session submits a fresh trace spec, then
// a fresh metrics spec, then repeats a pool spec, each on the same
// keep-alive connection and each followed to its downloaded artifact.
// Sessions start open loop at a fixed rate; at 13 sessions (39
// requests) per second the daemon's two workers are about half busy, so
// runs never back up in its queue, yet misses contend with each other,
// with hits and with the client for the CPUs.
const (
	serveRate   = 13.0            // sessions per second
	serveWarmup = 2 * time.Second // untimed stream before the window
	serveLimit  = time.Second     // per-request latency limit for ok_frac
	serveFlight = 256             // flight-recorder size of trace specs
	servePool   = 4               // pre-warmed metrics specs that hits repeat

	// serveSetups is how many times the daemon is booted and warmed. A
	// set-up costs about 0.2 s, short enough for one slow moment of the
	// host to move it, so its median needs more repeats than the other
	// workloads' set-ups.
	serveSetups = 7
)

// Request classes.
const (
	classTrace   = iota // fresh fault_seed trace spec: engine, obs, recorder, perfetto
	classMetrics        // fresh fault_seed metrics spec: BuildReport over 3 engines × 2 modes
	classHit            // a pool spec again: HTTP and the cache only
)

var traceSims = []string{experiment.TraceSimUni, experiment.TraceSimMulti, experiment.TraceSimGlobal}

// slot is one scheduled request.
type slot struct {
	class int
	spec  []byte
	art   string // artifact to download
	pool  int    // pool index of a hit, else -1
}

// session is one scheduled client session: its due time (offset from the
// stream's start) and its three requests, in order.
type session struct {
	due  time.Duration
	reqs [3]slot
}

// faultBase derives the workload's fault seeds from its seed: sessions
// use base+1, base+2, …; pool specs use base, base-1, …; all distinct.
func faultBase(seed int64) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z>>2) | 1<<40
}

func traceSpec(faultSeed int64, sim string) []byte {
	return []byte(fmt.Sprintf(`{"faults":"light","fault_seed":%d,"trace":{"sim":%q,"flight":%d}}`, faultSeed, sim, serveFlight))
}

func metricsSpec(faultSeed int64) []byte {
	return []byte(fmt.Sprintf(`{"faults":"light","fault_seed":%d,"metrics":true}`, faultSeed))
}

// poolSlot is pool spec k, submitted as a miss while warming and as a
// hit afterwards.
func poolSlot(seed int64, k int) slot {
	return slot{class: classHit, spec: metricsSpec(faultBase(seed) - int64(k)), art: "metrics.txt", pool: k}
}

// schedule returns sessions first … first+n-1 of the workload's open-loop
// stream, one every 1/rate seconds. Trace specs cycle through the three
// engines; hits draw pool specs at random. It is a pure function of its
// arguments.
func schedule(seed int64, rate float64, first, n int) []session {
	rng := rand.New(rand.NewSource(seed))
	base := faultBase(seed)
	out := make([]session, 0, n)
	for i := 0; i < first+n; i++ {
		hit := poolSlot(seed, rng.Intn(servePool))
		if i < first {
			continue
		}
		fs := base + 2*int64(i) + 1
		out = append(out, session{
			due: time.Duration(float64(i-first) / rate * float64(time.Second)),
			reqs: [3]slot{
				{class: classTrace, spec: traceSpec(fs, traceSims[i%len(traceSims)]), art: "trace.perfetto.json", pool: -1},
				{class: classMetrics, spec: metricsSpec(fs + 1), art: "metrics.txt", pool: -1},
				hit,
			},
		})
	}
	return out
}

// sample is one request's measurement.
type sample struct {
	slot
	cache                         string // the POST reply's cache tag
	status                        int
	state                         string // terminal event kind
	admit, queueWait, exec, fetch time.Duration
	total                         time.Duration // due → artifact downloaded
	sum                           [32]byte      // artifact SHA-256
	err                           error
}

// client is one keep-alive connection to the daemon.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr, Timeout: time.Minute}, base: base}
}

// do submits one spec, follows its NDJSON feed to the terminal event and
// downloads its artifact.
func (c *client) do(sl slot) sample {
	s := sample{slot: sl}
	t0 := time.Now()
	resp, err := c.hc.Post(c.base+"/api/v1/runs", "application/json", bytes.NewReader(sl.spec))
	if err != nil {
		s.err = err
		return s
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	s.status = resp.StatusCode
	if err != nil || (s.status != http.StatusOK && s.status != http.StatusAccepted) {
		s.err = fmt.Errorf("submit: status %d: %s %v", s.status, bytes.TrimSpace(body), err)
		return s
	}
	var doc struct {
		ID    string `json:"id"`
		Cache string `json:"cache"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		s.err = fmt.Errorf("submit reply: %w", err)
		return s
	}
	s.cache = doc.Cache
	tAdmit := time.Now()
	s.admit = tAdmit.Sub(t0)

	resp, err = c.hc.Get(c.base + "/api/v1/runs/" + doc.ID + "/events")
	if err != nil {
		s.err = err
		return s
	}
	tStart := tAdmit
	br := bufio.NewReader(resp.Body)
	for s.state == "" {
		line, err := br.ReadBytes('\n')
		if len(line) > 0 {
			var ev struct {
				Kind string `json:"kind"`
			}
			if jerr := json.Unmarshal(line, &ev); jerr != nil {
				err = jerr
			}
			switch ev.Kind {
			case "started":
				tStart = time.Now()
				s.queueWait = tStart.Sub(tAdmit)
			case "done", "failed", "shed":
				s.state = ev.Kind
				s.exec = time.Since(tStart)
			}
		}
		if err != nil && s.state == "" {
			s.err = fmt.Errorf("events: %w", err)
			break
		}
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if s.err != nil || s.state != "done" {
		return s
	}

	tFetch := time.Now()
	resp, err = c.hc.Get(c.base + "/api/v1/runs/" + doc.ID + "/artifacts/" + sl.art)
	if err != nil {
		s.err = err
		return s
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		s.err = fmt.Errorf("artifact %s: status %d %v", sl.art, resp.StatusCode, err)
		return s
	}
	s.fetch = time.Since(tFetch)
	s.sum = sha256.Sum256(data)
	return s
}

// daemon is a serve.Server behind a loopback http.Server.
type daemon struct {
	srv     *serve.Server
	hs      *http.Server
	served  chan error
	clients []*client
}

func bootDaemon(nproc int) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	// Jobs = 1 keeps the goroutines doing work at the worker count; the
	// cache holds every spec a run submits, so pool specs never evict.
	d := &daemon{
		srv:    serve.New(serve.Config{Queue: 16, Workers: nproc, Jobs: 1, Cache: 1 << 16}),
		served: make(chan error, 1),
	}
	d.hs = &http.Server{Handler: d.srv}
	go func() { d.served <- d.hs.Serve(ln) }()
	base := "http://" + ln.Addr().String()
	for i := 0; i < nproc; i++ {
		d.clients = append(d.clients, newClient(base))
	}
	return d, nil
}

// stop drains the daemon and waits for its HTTP server to exit.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	for _, c := range d.clients {
		c.hc.CloseIdleConnections()
	}
	err := d.srv.Drain(ctx)
	if serr := d.hs.Shutdown(ctx); err == nil {
		err = serr
	}
	if serr := <-d.served; err == nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	return err
}

// statz fetches the daemon's counters.
func (d *daemon) statz() (serve.Stats, error) {
	var st serve.Stats
	resp, err := d.clients[0].hc.Get(d.clients[0].base + "/api/v1/statz")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// warm submits every pool spec twice (a miss, then a hit) and returns the
// pool's artifact digests and miss samples.
func (d *daemon) warm(seed int64) ([servePool][32]byte, []sample, error) {
	var sums [servePool][32]byte
	var misses []sample
	for _, wantCache := range []string{"miss", "hit"} {
		for k := 0; k < servePool; k++ {
			s := d.clients[0].do(poolSlot(seed, k))
			if s.err != nil || s.state != "done" {
				return sums, nil, fmt.Errorf("warm pool spec %d: state %q: %v", k, s.state, s.err)
			}
			if s.cache != wantCache {
				return sums, nil, fmt.Errorf("warm pool spec %d: cache %s, want %s", k, s.cache, wantCache)
			}
			if wantCache == "miss" {
				sums[k] = s.sum
				misses = append(misses, s)
			} else if s.sum != sums[k] {
				return sums, nil, fmt.Errorf("warm pool spec %d: hit bytes differ from miss bytes", k)
			}
		}
	}
	return sums, misses, nil
}

// phase is one open-loop stretch of the session stream.
type phase struct {
	samples   [][3]sample
	sessions  latencies     // due → last artifact downloaded
	maxLate   time.Duration // generator: hand-off time minus due time, max
	wall, cpu time.Duration
	allocMB   float64 // per session
	shares    map[string]float64
}

// cpuPerSession is the phase's process CPU milliseconds per session.
func (ph *phase) cpuPerSession() float64 {
	return ph.cpu.Seconds() * 1e3 / float64(len(ph.samples))
}

// drive plays sessions open loop over the daemon's connections: each
// session is handed to the connection pool when due, whether or not
// earlier ones have finished, and is timed from its due time. A request
// is timed from the end of the one before it in its session (the first
// from the session's due time) until its artifact is downloaded.
func (d *daemon) drive(sessions []session, traced bool) (*phase, error) {
	ph := &phase{samples: make([][3]sample, len(sessions)), sessions: newLatencies()}
	var prof *cpuProfile
	if traced {
		var err error
		if prof, err = startCPUProfile(); err != nil {
			return nil, err
		}
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0, start := cpuTime(), time.Now()
	totals := make([]time.Duration, len(sessions))
	work := make(chan int, len(sessions)) // one send per session; never blocks the generator
	done := make(chan struct{})
	for _, c := range d.clients {
		go func(c *client) {
			defer func() { done <- struct{}{} }()
			for i := range work {
				from := sessions[i].due
				for k, sl := range sessions[i].reqs {
					s := c.do(sl)
					now := time.Since(start)
					s.total, from = now-from, now
					ph.samples[i][k] = s
				}
				totals[i] = from - sessions[i].due
			}
		}(c)
	}
	for i, se := range sessions {
		if wait := time.Until(start.Add(se.due)); wait > 0 {
			time.Sleep(wait)
		}
		if late := time.Since(start) - se.due; late > ph.maxLate {
			ph.maxLate = late
		}
		work <- i
	}
	close(work)
	for range d.clients {
		<-done
	}
	ph.cpu, ph.wall = cpuTime()-cpu0, time.Since(start)
	runtime.ReadMemStats(&ms1)
	ph.allocMB = float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1e6 / float64(len(sessions))
	for _, t := range totals {
		ph.sessions.add(t)
	}
	if prof != nil {
		var err error
		if ph.shares, err = prof.stop(); err != nil {
			return nil, err
		}
	}
	return ph, nil
}

// replayed is one miss re-rendered through the layers directly, with each
// layer timed.
type replayed struct {
	sum                        [32]byte
	obsEvents, obsNs, finishNs int64
	perfettoNs, perfettoBytes  int64
	buildNs, textNs            int64
}

// timedSink times the pipeline's Observe inside the replay's Tee.
type timedSink struct {
	p     *obs.Pipeline
	n, ns int64
}

// Observe implements obs.Sink.
func (s *timedSink) Observe(e trace.Event) {
	t0 := time.Now()
	s.p.Observe(e)
	s.ns += int64(time.Since(t0))
	s.n++
}

// replay renders a served miss's artifact again, the way the daemon's
// builders do: a trace spec through experiment.StreamTrace into a
// recorder and an obs.Pipeline (flight recorder, progress marks), then
// trace.WritePerfetto; a metrics spec through experiment.BuildReport and
// Report.WriteText.
func replay(js []byte) (replayed, error) {
	var r replayed
	spec, serr := serve.DecodeSpec(js)
	if serr != nil {
		return r, serr
	}
	p, err := spec.BuildProfile(1)
	if err != nil {
		return r, err
	}
	var buf bytes.Buffer
	if spec.Trace == nil {
		t0 := time.Now()
		rep, err := experiment.BuildReport(p, nil)
		if err != nil {
			return r, err
		}
		t1 := time.Now()
		if err := rep.WriteText(&buf); err != nil {
			return r, err
		}
		r.buildNs, r.textNs = int64(t1.Sub(t0)), int64(time.Since(t1))
		r.sum = sha256.Sum256(buf.Bytes())
		return r, nil
	}
	tasks, horizon, err := experiment.TraceSetup(p)
	if err != nil {
		return r, err
	}
	cpus := 1
	if spec.Trace.Sim != experiment.TraceSimUni {
		cpus = experiment.TraceCPUs
	}
	every := rtime.Duration(horizon / 10)
	if every < 1 {
		every = 1
	}
	var pipe *obs.Pipeline
	var dumpErr error
	cfg := obs.Config{
		Horizon: horizon, CPUs: cpus, Flight: spec.Trace.Flight, ProgressEvery: every,
		OnProgress: func(rtime.Time, obs.Snapshot) {},
		OnTrigger: func(string, rtime.Time) {
			var b bytes.Buffer
			dumpErr = pipe.Flight().WritePerfetto(&b)
		},
	}
	if pipe, err = obs.NewPipeline(cfg); err != nil {
		return r, err
	}
	rec := trace.NewRecorder(spec.Trace.Limit)
	ts := &timedSink{p: pipe}
	err = experiment.StreamTrace(p, spec.Trace.Sim, spec.Trace.Mode == "lockbased", p.Seeds[0], tasks, horizon,
		obs.Tee(obs.Func(rec.Record), ts))
	if err != nil {
		return r, err
	}
	t0 := time.Now()
	if _, err := pipe.Finish(); err != nil {
		return r, err
	}
	if dumpErr != nil {
		return r, dumpErr
	}
	t1 := time.Now()
	if err := trace.WritePerfetto(&buf, rec.Events()); err != nil {
		return r, err
	}
	r.finishNs, r.perfettoNs = int64(t1.Sub(t0)), int64(time.Since(t1))
	r.obsEvents, r.obsNs = ts.n, ts.ns
	r.perfettoBytes = int64(buf.Len())
	r.sum = sha256.Sum256(buf.Bytes())
	return r, nil
}

// runServe measures the daemon under the open-loop session stream.
func runServe(cfg config) (*outcome, error) {
	out := newOutcome()
	var (
		setups  []time.Duration
		d       *daemon
		poolSum [servePool][32]byte
		warmed  []sample
	)
	// Set-up: boot the daemon and warm its hit pool, repeated; every boot
	// but the last is drained again.
	for i := 0; i < serveSetups; i++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return nil, fmt.Errorf("stop daemon: %w", err)
			}
		}
		c0 := cpuTime()
		var err error
		if d, err = bootDaemon(cfg.nproc); err != nil {
			return nil, err
		}
		if poolSum, warmed, err = d.warm(cfg.seed); err != nil {
			_ = d.stop()
			return nil, err
		}
		setups = append(setups, cpuTime()-c0)
	}

	// An untimed stretch of the stream first, so the daemon's heap and the
	// connections are in steady state when the window opens; then the
	// window, split in an untraced and a traced half under --trace 1.
	n := int(serveRate * cfg.window.Seconds())
	nPlain := n
	if cfg.trace {
		nPlain = n / 2
	}
	nWarm := int(serveRate * serveWarmup.Seconds())
	var phases []*phase
	for _, part := range []struct {
		first, n int
		traced   bool
	}{{n, nWarm, false}, {0, nPlain, false}, {nPlain, n - nPlain, true}} {
		if part.n == 0 {
			continue
		}
		ph, err := d.drive(schedule(cfg.seed, serveRate, part.first, part.n), part.traced)
		if err != nil {
			_ = d.stop()
			return nil, err
		}
		phases = append(phases, ph)
	}
	plain := phases[1]
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	st, err := d.statz()
	if serr := d.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return nil, err
	}

	// Misses (the warmed pool's included) are re-rendered after the window;
	// a served miss must be byte-identical to its replay.
	var toReplay []*sample
	for i := range warmed {
		toReplay = append(toReplay, &warmed[i])
	}
	for _, ph := range phases {
		for i := range ph.samples {
			for k := range ph.samples[i] {
				if s := &ph.samples[i][k]; s.class != classHit && s.err == nil && s.state == "done" {
					toReplay = append(toReplay, s)
				}
			}
		}
	}
	reps, err := runner.Map(cfg.nproc, len(toReplay), func(i int) (replayed, error) { return replay(toReplay[i].spec) })
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	replayOK := map[*sample]bool{}
	for i, r := range reps {
		replayOK[toReplay[i]] = r.sum == toReplay[i].sum
	}
	for i := range warmed {
		if !replayOK[&warmed[i]] {
			return nil, fmt.Errorf("warmed pool spec differs from its replay: %s", warmed[i].spec)
		}
	}

	var hits, misses, refused int64
	for _, ph := range phases {
		for i := range ph.samples {
			for k := range ph.samples[i] {
				s := &ph.samples[i][k]
				out.attempted++
				if s.class == classHit {
					hits++
				} else {
					misses++
				}
				switch {
				case s.status == http.StatusTooManyRequests:
					refused++
					out.miss(cfg, "serve request refused (429)")
				case s.err != nil || s.state != "done":
					out.fail(cfg, "serve request: state %q: %v", s.state, s.err)
				case s.class == classHit && (s.cache != "hit" || s.sum != poolSum[s.pool]):
					out.fail(cfg, "serve hit: cache %s, bytes match pool %v", s.cache, s.sum == poolSum[s.pool])
				case s.class != classHit && (s.cache != "miss" || !replayOK[s]):
					out.fail(cfg, "serve miss: cache %s, bytes match replay %v: %s", s.cache, replayOK[s], s.spec)
				case s.total > serveLimit:
					out.miss(cfg, "serve request late: %v > %v", s.total, serveLimit)
				}
			}
		}
	}

	// Daemon accounting: every accepted run terminal, exact cache counts.
	out.attempted++
	wantHits, wantMisses := hits+servePool, misses+servePool
	if st.Accepted != st.Done+st.Failed+st.Shed || st.Cache.Hits != wantHits || st.Cache.Misses != wantMisses ||
		st.Rejected != refused || st.Failed != 0 {
		out.fail(cfg, "statz accepted=%d done=%d failed=%d shed=%d hits=%d (want %d) misses=%d (want %d) rejected=%d (want %d)",
			st.Accepted, st.Done, st.Failed, st.Shed, st.Cache.Hits, wantHits, st.Cache.Misses, wantMisses, st.Rejected, refused)
	}

	cl := classLatencies(plain)
	fmt.Fprintf(cfg.log, "serve: sessions/s=%.0f sessions=%d conns=%d workers=%d gen_max_late=%.3f ms heap_in_use=%.1f MB statz=%+v\n",
		serveRate, len(plain.samples), len(d.clients), cfg.nproc, float64(plain.maxLate)/1e6, float64(ms.HeapInuse)/1e6, st)
	for _, c := range []struct {
		name string
		l    latencies
	}{{"serve_session", plain.sessions}, {"serve_miss", cl.miss}, {"serve_trace", cl.trace},
		{"serve_metrics", cl.metrics}, {"serve_hit", cl.hit}} {
		fmt.Fprintf(cfg.log, "%s_p50_ms %.4f ms (n=%d, p99 %.4f ms)\n", c.name, c.l.ms(0.5), c.l.n(), c.l.ms(0.99))
	}
	fmt.Fprintf(cfg.log, "serve_ok_frac %.4f\n", okFrac(out))
	out.e2e["setup_s"] = metric{medianDur(setups).Seconds(), "s"}
	out.e2e["op_cpu_ms"] = metric{plain.cpuPerSession(), "ms"}
	out.e2e["op_alloc_mb"] = metric{plain.allocMB, "MB"}
	out.e2e["ok_frac"] = metric{okFrac(out), "frac"}

	if cfg.trace {
		tr := phases[2]
		serveLayers(out, tr, reps, st, cfg.nproc)
		out.layer["runner.cpu_util"] = metric{tr.cpu.Seconds() / (tr.wall.Seconds() * float64(cfg.nproc)), "frac"}
		for b, s := range tr.shares {
			out.layer[b+".cpu_share"] = metric{s, "frac"}
		}
		out.layer["wall.op_p50_ms"] = metric{plain.sessions.ms(0.5), "ms"}
		out.layer["trace.overhead_frac"] = metric{tr.cpuPerSession()/plain.cpuPerSession() - 1, "frac"}
	}
	return out, nil
}

// classLat holds a phase's request latencies by class.
type classLat struct{ trace, metrics, miss, hit latencies }

func classLatencies(ph *phase) classLat {
	c := classLat{newLatencies(), newLatencies(), newLatencies(), newLatencies()}
	for _, ss := range ph.samples {
		for _, s := range ss {
			switch s.class {
			case classTrace:
				c.trace.add(s.total)
				c.miss.add(s.total)
			case classMetrics:
				c.metrics.add(s.total)
				c.miss.add(s.total)
			default:
				c.hit.add(s.total)
			}
		}
	}
	return c
}

// serveLayers reports the traced phase's per-stage latencies, the
// daemon's counters and the replay's per-layer costs.
func serveLayers(out *outcome, tr *phase, reps []replayed, st serve.Stats, workers int) {
	admit, queue, exec, fetch := newLatencies(), newLatencies(), newLatencies(), newLatencies()
	var busy time.Duration
	for _, ss := range tr.samples {
		for _, s := range ss {
			admit.add(s.admit)
			fetch.add(s.fetch)
			if s.class != classHit {
				queue.add(s.queueWait)
				exec.add(s.exec)
				busy += s.exec
			}
		}
	}
	cl := classLatencies(tr)
	out.layer["serve.admit_ms"] = metric{admit.ms(0.5), "ms"}
	out.layer["serve.queue_wait_ms"] = metric{queue.ms(0.5), "ms"}
	out.layer["serve.exec_ms"] = metric{exec.ms(0.5), "ms"}
	out.layer["serve.fetch_ms"] = metric{fetch.ms(0.5), "ms"}
	out.layer["serve.trace_p50_ms"] = metric{cl.trace.ms(0.5), "ms"}
	out.layer["serve.metrics_p50_ms"] = metric{cl.metrics.ms(0.5), "ms"}
	out.layer["serve.hit_p50_ms"] = metric{cl.hit.ms(0.5), "ms"}
	out.layer["serve.cache_hits"] = metric{float64(st.Cache.Hits), "count"}
	out.layer["serve.cache_misses"] = metric{float64(st.Cache.Misses), "count"}
	out.layer["serve.refused"] = metric{float64(st.Rejected), "count"}
	out.layer["serve.max_queue_depth"] = metric{float64(st.MaxQueueDepth), "count"}
	out.layer["serve.worker_busy_frac"] = metric{busy.Seconds() / (tr.wall.Seconds() * float64(workers)), "frac"}

	var traces, reports, events, obsNs, finishNs, perfNs, perfBytes, buildNs, textNs int64
	for _, r := range reps {
		if r.obsEvents > 0 {
			traces++
			events += r.obsEvents
			obsNs += r.obsNs
			finishNs += r.finishNs
			perfNs += r.perfettoNs
			perfBytes += r.perfettoBytes
		} else {
			reports++
			buildNs += r.buildNs
			textNs += r.textNs
		}
	}
	out.layer["obs.events"] = metric{float64(events), "count"}
	out.layer["obs.ns_per_event"] = metric{ratio(float64(obsNs), float64(events)), "ns"}
	out.layer["obs.finish_s"] = metric{ratio(float64(finishNs)/1e9, float64(traces)), "s"}
	out.layer["render.perfetto_s"] = metric{ratio(float64(perfNs)/1e9, float64(traces)), "s"}
	out.layer["render.perfetto_bytes"] = metric{ratio(float64(perfBytes), float64(traces)), "B"}
	out.layer["report.build_s"] = metric{ratio(float64(buildNs)/1e9, float64(reports)), "s"}
	out.layer["report.text_s"] = metric{ratio(float64(textNs)/1e9, float64(reports)), "s"}
}
