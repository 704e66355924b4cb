package serve

// Admission-control property tests, designed to run under -race (make
// race-all): the queue never exceeds its bound, every accepted run
// terminates in done/failed/shed (nothing is silently dropped), and the
// counters stay exact under concurrent submit/poll/stream/drain load.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// traceSpecN mints the n-th member of a family of distinct cheap specs
// (distinct fault seeds → distinct cache keys).
func traceSpecN(n int) string {
	return fmt.Sprintf(`{"faults":"light","fault_seed":%d,"trace":{"format":"json"}}`, n+1)
}

// TestQueueBoundProperty floods a tiny server with distinct specs much
// faster than one worker can run them and asserts the admission
// properties: accepted+rejected accounts for every submission, the
// queue high-water mark never exceeds the bound, and after drain every
// accepted run reached a terminal state.
func TestQueueBoundProperty(t *testing.T) {
	const submissions = 40
	srv := New(Config{Workers: 1, Queue: 2, Jobs: 1, Cache: -1})

	accepted, rejected := 0, 0
	for i := 0; i < submissions; i++ {
		spec := mustDecode(t, traceSpecN(i))
		run, status := srv.Submit(spec)
		switch status {
		case http.StatusAccepted:
			if run == nil {
				t.Fatalf("202 with nil run")
			}
			accepted++
		case http.StatusTooManyRequests:
			if run != nil {
				t.Fatalf("429 returned a run")
			}
			rejected++
		default:
			t.Fatalf("submission %d: unexpected status %d", i, status)
		}
	}
	if accepted+rejected != submissions {
		t.Fatalf("accepted %d + rejected %d != %d submissions", accepted, rejected, submissions)
	}
	if accepted == 0 {
		t.Fatalf("no submission accepted")
	}

	drainCtx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := srv.Drain(drainCtx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	stats := srv.Stats()
	if stats.MaxQueueDepth > stats.QueueCap {
		t.Errorf("queue high-water %d exceeds bound %d", stats.MaxQueueDepth, stats.QueueCap)
	}
	if got := int(stats.Rejected); got != rejected {
		t.Errorf("stats.Rejected = %d, want %d", got, rejected)
	}
	// Delivery property: every accepted run is terminal, and the
	// terminal counters account for all of them.
	for _, id := range srv.RunIDs() {
		run, ok := srv.Get(id)
		if !ok {
			t.Fatalf("registered run %s vanished", id)
		}
		st, _, _, _, _, _ := run.snapshot()
		if !terminal(st) {
			t.Errorf("run %s left in state %s after drain", id, st)
		}
	}
	if total := stats.Done + stats.Failed + stats.Shed; total != int64(accepted) {
		t.Errorf("done %d + failed %d + shed %d != accepted %d",
			stats.Done, stats.Failed, stats.Shed, accepted)
	}
}

// TestDrainShedsBacklog: a drain whose deadline has already passed
// sheds the queued backlog explicitly — each shed run reaches
// StateShed and the shed counter — and later submissions see 503.
func TestDrainShedsBacklog(t *testing.T) {
	srv := New(Config{Workers: 1, Queue: 4, Jobs: 1, Cache: -1})
	// First run occupies the single worker for ~100ms; the rest queue
	// behind it.
	first, status := srv.Submit(mustDecode(t, `{"report":{}}`))
	if status != http.StatusAccepted {
		t.Fatalf("first submit: status %d", status)
	}
	var queued []*Run
	for i := 0; i < 3; i++ {
		run, status := srv.Submit(mustDecode(t, traceSpecN(i)))
		if status != http.StatusAccepted {
			t.Fatalf("backlog submit %d: status %d", i, status)
		}
		queued = append(queued, run)
	}

	expired, cancel := context.WithCancel(context.Background())
	cancel()
	if err := srv.Drain(expired); err != context.Canceled {
		t.Fatalf("drain with expired ctx: err %v, want context.Canceled", err)
	}

	// The in-flight run may finish or shed depending on timing; the
	// backlog behind it must be shed.
	st, _, _, _, _, _ := first.snapshot()
	if !terminal(st) {
		t.Errorf("in-flight run left in state %s", st)
	}
	shed := 0
	for _, run := range queued {
		st, _, _, _, _, _ := run.snapshot()
		if !terminal(st) {
			t.Errorf("queued run %s left in state %s after drain", run.ID, st)
		}
		if st == StateShed {
			shed++
		}
	}
	if shed == 0 {
		t.Errorf("expired drain shed no queued runs")
	}
	stats := srv.Stats()
	if int(stats.Shed) < shed {
		t.Errorf("stats.Shed = %d, want >= %d", stats.Shed, shed)
	}
	if !stats.Draining {
		t.Errorf("stats.Draining = false after drain")
	}

	if _, status := srv.Submit(mustDecode(t, `{"metrics":true}`)); status != http.StatusServiceUnavailable {
		t.Errorf("submit while draining: status %d, want 503", status)
	}
	// Idempotent: a second drain returns immediately.
	if err := srv.Drain(context.Background()); err != nil {
		t.Errorf("second drain: %v", err)
	}
}

// TestConcurrentStress hammers one daemon over HTTP from many
// goroutines — submitters (mixing identical and distinct specs),
// event streamers, and statz pollers — then drains. Run under -race
// this is the data-race canary for the whole serving layer.
func TestConcurrentStress(t *testing.T) {
	srv := New(Config{Workers: 3, Queue: 64, Jobs: 2})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	var wg sync.WaitGroup
	ids := make(chan string, 64)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				// Half the load shares one spec (cache contention), half is
				// distinct (queue contention).
				spec := `{"trace":{"format":"json"}}`
				if i%2 == 0 {
					spec = traceSpecN(g*10 + i)
				}
				resp, err := http.Post(ts.URL+"/api/v1/runs", "application/json", strings.NewReader(spec))
				if err != nil {
					t.Errorf("POST: %v", err)
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK, http.StatusAccepted:
					var doc struct {
						ID string `json:"id"`
					}
					if err := json.Unmarshal(body, &doc); err != nil || doc.ID == "" {
						t.Errorf("bad submit body %s", body)
						return
					}
					ids <- doc.ID
				case http.StatusTooManyRequests, http.StatusServiceUnavailable:
					// Legitimate under load.
				default:
					t.Errorf("submit status %d: %s", resp.StatusCode, body)
				}
			}
		}(g)
	}
	// Streamers follow every accepted run's feed to the end; pollers
	// hit statz and the run listing concurrently.
	var followers sync.WaitGroup
	followers.Add(1)
	go func() {
		defer followers.Done()
		var inner sync.WaitGroup
		for id := range ids {
			inner.Add(1)
			go func(id string) {
				defer inner.Done()
				resp, err := http.Get(ts.URL + "/api/v1/runs/" + id + "/events")
				if err != nil {
					t.Errorf("GET events: %v", err)
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}(id)
		}
		inner.Wait()
	}()
	stopPoll := make(chan struct{})
	var pollers sync.WaitGroup
	for p := 0; p < 2; p++ {
		pollers.Add(1)
		go func() {
			defer pollers.Done()
			for {
				select {
				case <-stopPoll:
					return
				default:
				}
				for _, path := range []string{"/api/v1/statz", "/api/v1/runs", "/healthz"} {
					if resp, err := http.Get(ts.URL + path); err == nil {
						_, _ = io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
					}
				}
			}
		}()
	}

	wg.Wait()
	close(ids)
	followers.Wait()
	close(stopPoll)
	pollers.Wait()

	drainCtx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := srv.Drain(drainCtx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	stats := srv.Stats()
	if stats.MaxQueueDepth > stats.QueueCap {
		t.Errorf("queue high-water %d exceeds bound %d", stats.MaxQueueDepth, stats.QueueCap)
	}
	if total := stats.Done + stats.Failed + stats.Shed; total != stats.Accepted {
		t.Errorf("terminal counters %d != accepted %d", total, stats.Accepted)
	}
	for _, id := range srv.RunIDs() {
		run, _ := srv.Get(id)
		st, _, _, _, _, _ := run.snapshot()
		if !terminal(st) {
			t.Errorf("run %s left in state %s", id, st)
		}
	}
}

// waitRun blocks until cond holds for run, evaluated under the run's
// lock after every event it records.
func waitRun(run *Run, cond func() bool) {
	run.mu.Lock()
	defer run.mu.Unlock()
	for !cond() {
		run.cond.Wait()
	}
}

// TestDoneIsPublishedAfterCacheAndCounters: a run seen done is already
// in the cache and counted in statz. The test holds the server lock
// from before the build ends until shortly after its artifacts are
// recorded, so a done published ahead of the cache put and the counter
// is seen while both are still missing.
func TestDoneIsPublishedAfterCacheAndCounters(t *testing.T) {
	srv := New(Config{Workers: 1, Queue: 1, Jobs: 1})
	defer func() {
		ctx, cancel := contextWithTestDeadline(t)
		defer cancel()
		_ = srv.Drain(ctx)
	}()
	const spec = `{"report":{}}`
	run, status := srv.Submit(mustDecode(t, spec))
	if status != http.StatusAccepted {
		t.Fatalf("submit: status %d", status)
	}
	waitRun(run, func() bool { return run.state != StateQueued })

	var expired atomic.Bool
	wakeAfter := func(d time.Duration) *time.Timer {
		return time.AfterFunc(d, func() {
			expired.Store(true)
			run.mu.Lock()
			run.cond.Broadcast()
			run.mu.Unlock()
		})
	}
	srv.mu.Lock()
	// A failed build records no files, so this wait is bounded too.
	bound := wakeAfter(time.Minute)
	waitRun(run, func() bool { return run.files != nil || terminal(run.state) || expired.Load() })
	bound.Stop()
	grace := wakeAfter(100 * time.Millisecond)
	waitRun(run, func() bool { return terminal(run.state) || expired.Load() })
	grace.Stop()
	st, _, _, _, _, _ := run.snapshot()
	_, cached := srv.cache.entries[run.key]
	done := srv.done
	srv.mu.Unlock()
	if st == StateDone && (!cached || done != 1) {
		t.Fatalf("run seen done with cached=%v and done counter %d", cached, done)
	}

	waitRun(run, func() bool { return terminal(run.state) })
	stats := srv.Stats()
	if st, errMsg, _, _, _, _ := run.snapshot(); st != StateDone {
		t.Fatalf("run ended %s: %s", st, errMsg)
	}
	if stats.Done != 1 || stats.Accepted != stats.Done+stats.Failed+stats.Shed || stats.Running != 0 {
		t.Errorf("statz at done: accepted %d, done %d, failed %d, shed %d, running %d",
			stats.Accepted, stats.Done, stats.Failed, stats.Shed, stats.Running)
	}
	if _, status := srv.Submit(mustDecode(t, spec)); status != http.StatusOK {
		t.Errorf("resubmit after done: status %d, want a cache hit (200)", status)
	}
}
