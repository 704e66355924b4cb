package main

// End-to-end test of the daemon binary path: boot run() on a real TCP
// socket, drive the full submit → stream → download cycle over the
// wire, verify the served bytes against the batch builders, then
// SIGTERM (ctx cancel) and assert a clean drain.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/artifact"
	"repro/internal/serve"
)

func TestDaemonEndToEnd(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var stdout, stderr bytes.Buffer
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run(ctx,
			[]string{"-addr", "127.0.0.1:0", "-workers", "1", "-queue", "4", "-jobs", "2", "-drain-timeout", "30s"},
			&stdout, &stderr, ready)
	}()
	var addr string
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("daemon exited before listening: %v\nstderr: %s", err, stderr.String())
	case <-time.After(10 * time.Second):
		t.Fatalf("daemon never became ready")
	}
	base := "http://" + addr

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	health, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || string(health) != "ok\n" {
		t.Fatalf("healthz = %d %q, want 200 ok", resp.StatusCode, health)
	}

	// Submit a fault-injected trace spec and follow its NDJSON feed to
	// the terminal event.
	specSrc := `{"faults":"light","fault_seed":11,"trace":{"format":"perfetto","flight":256}}`
	resp, err = http.Post(base+"/api/v1/runs", "application/json", strings.NewReader(specSrc))
	if err != nil {
		t.Fatalf("POST spec: %v", err)
	}
	var doc struct {
		ID    string `json:"id"`
		State string `json:"state"`
	}
	err = json.NewDecoder(resp.Body).Decode(&doc)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d err %v", resp.StatusCode, err)
	}

	resp, err = http.Get(base + "/api/v1/runs/" + doc.ID + "/events")
	if err != nil {
		t.Fatalf("GET events: %v", err)
	}
	var lastKind string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var e struct {
			Kind string `json:"kind"`
		}
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad event line %q: %v", sc.Text(), err)
		}
		lastKind = e.Kind
	}
	resp.Body.Close()
	if lastKind != "done" {
		t.Fatalf("run ended with %q, want done", lastKind)
	}

	// The served artifact bytes must match the batch build of the same
	// canonical spec (run with a different jobs value on purpose).
	spec, specErr := serve.DecodeSpec([]byte(specSrc))
	if specErr != nil {
		t.Fatalf("DecodeSpec: %v", specErr)
	}
	p, err := spec.BuildProfile(1)
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
	for name, want := range map[string][]byte{
		"trace.perfetto.json": tr.Data,
		"trace.summary.txt":   []byte(tr.Summary("trace.perfetto.json", "trace.perfetto.json.flight.json")),
	} {
		resp, err := http.Get(base + "/api/v1/runs/" + doc.ID + "/artifacts/" + name)
		if err != nil {
			t.Fatalf("GET artifact %s: %v", name, err)
		}
		got, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("artifact %s: status %d", name, resp.StatusCode)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("artifact %s: served bytes differ from batch (%d vs %d)", name, len(got), len(want))
		}
	}

	// Resubmitting the identical spec is a cache hit served as done.
	resp, err = http.Post(base+"/api/v1/runs", "application/json", strings.NewReader(specSrc))
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	var hit struct {
		Cache string `json:"cache"`
		State string `json:"state"`
	}
	err = json.NewDecoder(resp.Body).Decode(&hit)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || hit.Cache != "hit" || hit.State != "done" {
		t.Fatalf("resubmit: status %d cache %q state %q, want 200/hit/done", resp.StatusCode, hit.Cache, hit.State)
	}

	// SIGTERM: cancel the context, expect a clean drain and exit.
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("daemon exit: %v\nstderr: %s", err, stderr.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("daemon did not drain and exit")
	}
	out := stdout.String()
	for _, want := range []string{"rtsimd: listening on ", "rtsimd: draining", "rtsimd: drained, exiting"} {
		if !strings.Contains(out, want) {
			t.Errorf("stdout missing %q:\n%s", want, out)
		}
	}
}

// TestDaemonBadFlag: flag errors surface as run() errors, not exits.
func TestDaemonBadFlag(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run(context.Background(), []string{"-no-such-flag"}, &stdout, &stderr, nil); err == nil {
		t.Fatalf("run with bad flag: nil error")
	}
}

// TestDaemonClosesStalledHeaders: a client that starts a request and
// never finishes its headers is disconnected once the header timeout
// passes, without a response.
func TestDaemonClosesStalledHeaders(t *testing.T) {
	defer func(d time.Duration) { readHeaderTimeout = d }(readHeaderTimeout)
	readHeaderTimeout = 200 * time.Millisecond

	ctx, cancel := context.WithCancel(context.Background())
	var stdout, stderr bytes.Buffer
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-addr", "127.0.0.1:0", "-workers", "1", "-drain-timeout", "5s"}, &stdout, &stderr, ready)
	}()
	defer func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("daemon exit: %v", err)
		}
	}()
	var addr string
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("daemon exited before listening: %v\nstderr: %s", err, stderr.String())
	case <-time.After(10 * time.Second):
		t.Fatalf("daemon never became ready")
	}

	// The daemon arms its header deadline when it starts reading the
	// accepted connection, which can precede Dial returning here, so the
	// lower bound is measured from before the dial.
	start := time.Now()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /healthz HTTP/1.1\r\nHost: rtsimd\r\n"); err != nil {
		t.Fatalf("write partial headers: %v", err)
	}
	// The client-side deadline only bounds the test; the daemon must
	// close the connection well before it.
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	n, err := io.Copy(io.Discard, conn)
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatalf("connection still open after %v: stalled headers were not timed out", time.Since(start))
	}
	if err != nil {
		t.Fatalf("read after stalled headers: %v", err)
	}
	if n != 0 {
		t.Fatalf("daemon answered %d bytes to an incomplete request", n)
	}
	if el := time.Since(start); el < readHeaderTimeout {
		t.Fatalf("connection closed after %v, before the %v header timeout", el, readHeaderTimeout)
	}
}
