package serve

// The e2e conformance suite: everything the daemon serves over HTTP
// must be byte-identical to what the batch rtsim path renders for the
// same spec — for any worker count, any submission interleaving, and
// whether the bytes came from the cache or a fresh run. The shared
// builders in internal/artifact make this true by construction; these
// tests pin that it stays true.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/artifact"
)

// contextWithTestDeadline bounds teardown drains.
func contextWithTestDeadline(t *testing.T) (context.Context, context.CancelFunc) {
	t.Helper()
	return context.WithTimeout(context.Background(), time.Minute)
}

// newTestServer boots a serve.Server inside httptest and tears both
// down when the test ends.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(cfg)
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		drainCtx, cancel := contextWithTestDeadline(t)
		defer cancel()
		_ = srv.Drain(drainCtx)
	})
	return srv, ts
}

// submit posts one spec body and decodes the response envelope.
func submit(t *testing.T, ts *httptest.Server, spec string) (status int, doc map[string]any) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/api/v1/runs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatalf("POST /api/v1/runs: %v", err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	return resp.StatusCode, doc
}

// streamEvents reads a run's NDJSON feed to completion and returns the
// decoded events — the stream ends exactly when the run is terminal.
func streamEvents(t *testing.T, ts *httptest.Server, id string) []Event {
	t.Helper()
	resp, err := http.Get(ts.URL + "/api/v1/runs/" + id + "/events")
	if err != nil {
		t.Fatalf("GET events: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("events content-type = %q, want application/x-ndjson", ct)
	}
	var events []Event
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		events = append(events, e)
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("events stream: %v", err)
	}
	return events
}

// fetchArtifacts downloads every served artifact of a run.
func fetchArtifacts(t *testing.T, ts *httptest.Server, id string) map[string][]byte {
	t.Helper()
	resp, err := http.Get(ts.URL + "/api/v1/runs/" + id + "/artifacts")
	if err != nil {
		t.Fatalf("GET artifacts: %v", err)
	}
	var listing struct {
		Artifacts []struct {
			Name string `json:"name"`
			Size int    `json:"size"`
		} `json:"artifacts"`
	}
	err = json.NewDecoder(resp.Body).Decode(&listing)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("decode artifact listing: %v", err)
	}
	out := map[string][]byte{}
	for _, a := range listing.Artifacts {
		r2, err := http.Get(ts.URL + "/api/v1/runs/" + id + "/artifacts/" + a.Name)
		if err != nil {
			t.Fatalf("GET artifact %s: %v", a.Name, err)
		}
		data, err := io.ReadAll(r2.Body)
		r2.Body.Close()
		if err != nil {
			t.Fatalf("read artifact %s: %v", a.Name, err)
		}
		if len(data) != a.Size {
			t.Errorf("artifact %s: served %d bytes, listing says %d", a.Name, len(data), a.Size)
		}
		out[a.Name] = data
	}
	return out
}

// runToCompletion submits a spec, streams its feed to the end, and
// returns the run id plus served artifacts. Fails the test unless the
// run lands in wantState.
func runToCompletion(t *testing.T, ts *httptest.Server, spec string, wantState runState) (string, map[string][]byte) {
	t.Helper()
	status, doc := submit(t, ts, spec)
	if status != http.StatusAccepted && status != http.StatusOK {
		t.Fatalf("submit %s: status %d, body %v", spec, status, doc)
	}
	id, _ := doc["id"].(string)
	if id == "" {
		t.Fatalf("submit %s: no run id in %v", spec, doc)
	}
	events := streamEvents(t, ts, id)
	if len(events) == 0 || events[0].Kind != "queued" {
		t.Fatalf("run %s: feed does not start with queued: %+v", id, events)
	}
	final := events[len(events)-1]
	if final.Kind != string(wantState) {
		t.Fatalf("run %s: final event %q (error %q), want %q", id, final.Kind, final.Error, wantState)
	}
	for i, e := range events {
		if e.Seq != i {
			t.Fatalf("run %s: event %d has seq %d — feed not gap-free", id, i, e.Seq)
		}
	}
	return id, fetchArtifacts(t, ts, id)
}

// batchTrace renders the exact bytes the rtsim CLI would write for this
// canonical spec — the conformance reference.
func batchTrace(t *testing.T, spec *Spec, jobs int) map[string][]byte {
	t.Helper()
	p, err := spec.BuildProfile(jobs)
	if err != nil {
		t.Fatalf("BuildProfile: %v", err)
	}
	tr, err := artifact.BuildTrace(p, artifact.TraceOptions{
		Sim: spec.Trace.Sim, Mode: spec.Trace.Mode, Format: spec.Trace.Format,
		Limit: spec.Trace.Limit, Flight: spec.Trace.Flight,
	})
	if err != nil {
		t.Fatalf("BuildTrace: %v", err)
	}
	name := traceArtifactName(spec.Trace.Format)
	dumpName := name + ".flight.json"
	out := map[string][]byte{name: tr.Data}
	if tr.FlightDump != nil {
		out[dumpName] = tr.FlightDump
	}
	out["trace.summary.txt"] = []byte(tr.Summary(name, dumpName))
	return out
}

// diffArtifacts asserts two artifact sets are byte-identical.
func diffArtifacts(t *testing.T, label string, got, want map[string][]byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: served %d artifacts, batch wrote %d", label, len(got), len(want))
	}
	for name, wantData := range want {
		gotData, ok := got[name]
		if !ok {
			t.Errorf("%s: artifact %s missing from served set", label, name)
			continue
		}
		if !bytes.Equal(gotData, wantData) {
			t.Errorf("%s: artifact %s differs from batch (%d vs %d bytes)",
				label, name, len(gotData), len(wantData))
		}
	}
}

// TestServedTraceMatchesBatch is the core conformance contract, across
// a plain, a fault-injected, and a stochastic-scheduler spec.
func TestServedTraceMatchesBatch(t *testing.T) {
	cases := []struct {
		label string
		spec  string
	}{
		{"plain", `{"trace":{"format":"json"}}`},
		{"faults", `{"faults":"light","fault_seed":7,"trace":{"format":"perfetto","flight":256}}`},
		{"stoch", `{"stoch":"uni","stoch_seed":3,"trace":{"format":"spans"}}`},
	}
	_, ts := newTestServer(t, Config{Workers: 2, Jobs: 2})
	for _, tc := range cases {
		t.Run(tc.label, func(t *testing.T) {
			_, served := runToCompletion(t, ts, tc.spec, StateDone)
			spec := mustDecode(t, tc.spec)
			// The batch reference runs with a different jobs value on
			// purpose: output must not depend on it.
			want := batchTrace(t, spec, 1)
			diffArtifacts(t, tc.label, served, want)
		})
	}
}

// TestServedReportMatchesBatch: the CSV+HTML report set and the metrics
// digest served by the daemon are the batch bytes.
func TestServedReportMatchesBatch(t *testing.T) {
	specSrc := `{"metrics":true,"report":{}}`
	_, ts := newTestServer(t, Config{Workers: 1, Jobs: 3})
	_, served := runToCompletion(t, ts, specSrc, StateDone)

	spec := mustDecode(t, specSrc)
	p, err := spec.BuildProfile(1)
	if err != nil {
		t.Fatalf("BuildProfile: %v", err)
	}
	set, err := artifact.BuildReportSet(p, nil)
	if err != nil {
		t.Fatalf("BuildReportSet: %v", err)
	}
	digest, err := artifact.BuildMetrics(p)
	if err != nil {
		t.Fatalf("BuildMetrics: %v", err)
	}
	want := map[string][]byte{"metrics.txt": digest}
	for _, f := range set.Files {
		want[f.Name] = f.Data
	}
	diffArtifacts(t, "report", served, want)
	if _, ok := served["report.html"]; !ok {
		t.Errorf("served set has no report.html")
	}
}

// TestServedBytesInvariantAcrossJobs: two daemons configured with
// different per-run parallelism serve identical bytes for one spec.
func TestServedBytesInvariantAcrossJobs(t *testing.T) {
	specSrc := `{"faults":"light","trace":{"format":"json","flight":128}}`
	var sets []map[string][]byte
	for _, jobs := range []int{1, 4} {
		_, ts := newTestServer(t, Config{Workers: 1, Jobs: jobs})
		_, served := runToCompletion(t, ts, specSrc, StateDone)
		sets = append(sets, served)
	}
	diffArtifacts(t, "jobs=1 vs jobs=4", sets[0], sets[1])
}

// TestStreamFieldSharesCache: the deprecated "stream" spec field selects
// nothing, so a spec carrying it is the same scenario as its stream-less
// twin — one cache line, one set of served bytes.
func TestStreamFieldSharesCache(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1})
	_, fresh := runToCompletion(t, ts, `{"metrics":true}`, StateDone)
	status, doc := submit(t, ts, `{"metrics":true,"stream":true}`)
	if status != http.StatusOK || doc["cache"] != "hit" || doc["state"] != string(StateDone) {
		t.Fatalf("stream spec: status %d cache=%v state=%v, want 200 hit/done", status, doc["cache"], doc["state"])
	}
	cached := fetchArtifacts(t, ts, doc["id"].(string))
	diffArtifacts(t, "stream spec vs stream-less spec", cached, fresh)
	if st := srv.Stats(); st.Cache.Hits != 1 || st.Cache.Misses != 1 {
		t.Errorf("cache hits/misses = %d/%d, want 1/1", st.Cache.Hits, st.Cache.Misses)
	}
}

// TestConcurrentIdenticalSubmissions: many clients race the same spec;
// every delivered byte set is identical, the cache counters stay exact
// (hits+misses == submissions), and a follow-up submission is a pure
// cache hit served as an already-done run.
func TestConcurrentIdenticalSubmissions(t *testing.T) {
	const clients = 6
	specSrc := `{"trace":{"format":"json"}}`
	srv, ts := newTestServer(t, Config{Workers: 3, Queue: clients + 1})

	var wg sync.WaitGroup
	results := make([]map[string][]byte, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, results[i] = runToCompletion(t, ts, specSrc, StateDone)
		}(i)
	}
	wg.Wait()
	for i := 1; i < clients; i++ {
		diffArtifacts(t, "client 0 vs client "+string(rune('0'+i)), results[0], results[i])
	}

	stats := srv.Stats()
	if got := stats.Cache.Hits + stats.Cache.Misses; got != clients {
		t.Errorf("cache hits+misses = %d, want exactly %d (one lookup per submission)", got, clients)
	}
	if stats.Cache.Misses < 1 {
		t.Errorf("cache misses = %d, want >= 1 (first run cannot hit)", stats.Cache.Misses)
	}

	// Now the artifacts are cached: one more submission must be a hit,
	// born done, serving the same bytes.
	status, doc := submit(t, ts, specSrc)
	if status != http.StatusOK {
		t.Fatalf("post-warm submit: status %d, want 200 (cache hit)", status)
	}
	if doc["cache"] != "hit" || doc["state"] != string(StateDone) {
		t.Fatalf("post-warm submit: cache=%v state=%v, want hit/done", doc["cache"], doc["state"])
	}
	cached := fetchArtifacts(t, ts, doc["id"].(string))
	diffArtifacts(t, "cached vs fresh", cached, results[0])
	after := srv.Stats()
	if after.Cache.Hits != stats.Cache.Hits+1 {
		t.Errorf("cache hits after warm submit = %d, want %d", after.Cache.Hits, stats.Cache.Hits+1)
	}
}

// TestProgressFeedIsLive: a flight-observed run publishes progress
// events carrying pipeline snapshots paced on virtual time, and the
// snapshot endpoint reflects the latest one after completion.
func TestProgressFeedIsLive(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	id, _ := runToCompletion(t, ts, `{"trace":{"format":"json","flight":64}}`, StateDone)

	events := streamEvents(t, ts, id) // replay of the full feed
	var progress []Event
	for _, e := range events {
		if e.Kind == "progress" {
			progress = append(progress, e)
		}
	}
	if len(progress) < 2 {
		t.Fatalf("run published %d progress events, want >= 2", len(progress))
	}
	for i := 1; i < len(progress); i++ {
		if progress[i].TUS <= progress[i-1].TUS {
			t.Errorf("progress marks not strictly increasing in virtual time: %d then %d",
				progress[i-1].TUS, progress[i].TUS)
		}
	}
	last := progress[len(progress)-1]
	if last.Events <= 0 || last.Commits <= 0 {
		t.Errorf("final progress snapshot empty: %+v", last)
	}

	resp, err := http.Get(ts.URL + "/api/v1/runs/" + id + "/snapshot")
	if err != nil {
		t.Fatalf("GET snapshot: %v", err)
	}
	defer resp.Body.Close()
	var doc struct {
		State    string `json:"state"`
		Progress *Event `json:"progress"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("decode snapshot: %v", err)
	}
	if doc.State != string(StateDone) || doc.Progress == nil || doc.Progress.TUS != last.TUS {
		t.Errorf("snapshot = %+v, want done with latest progress mark %d", doc, last.TUS)
	}
}
