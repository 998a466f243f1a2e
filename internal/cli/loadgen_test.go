package cli

import (
	"context"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"spantree/internal/stats"
)

// TestRunLoadGen drives a real daemon end to end: boot spantreed on an
// ephemeral port, register a graph through loadgen, run two closed-loop
// scenarios plus both typed-rejection probes, and check the written
// serving artifact.
func TestRunLoadGen(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var daemonOut syncBuffer
	done := make(chan error, 1)
	go func() {
		done <- runSpanTreeD(ctx, []string{"-addr", "127.0.0.1:0", "-p", "1", "-pool", "2"},
			&daemonOut, &daemonOut)
	}()
	var base string
	deadline := time.Now().Add(5 * time.Second)
	for base == "" {
		if time.Now().After(deadline) {
			t.Fatalf("daemon never announced its address; output:\n%s", daemonOut.String())
		}
		for _, line := range strings.Split(daemonOut.String(), "\n") {
			if rest, ok := strings.CutPrefix(line, "spantreed listening on "); ok {
				base = strings.TrimSpace(rest)
			}
		}
		time.Sleep(5 * time.Millisecond)
	}

	out := filepath.Join(t.TempDir(), "BENCH_serving.json")
	var stdout strings.Builder
	err := RunLoadGen([]string{
		"-url", base,
		"-graph", "bench", "-register", "torus2d:256",
		"-mode", "closed", "-c", "1,2", "-n", "24", "-warmup", "4",
		"-retry", "2", "-hedge", "250ms",
		"-strict", "-probes", "-probe-slow-n", "1048576",
		"-out", out,
	}, &stdout, &stdout)
	if err != nil {
		t.Fatalf("loadgen: %v\noutput:\n%s", err, stdout.String())
	}
	for _, want := range []string{"closed-c1", "closed-c2",
		"probe oversize: 413", "probe cancellation: 504",
		"probe readiness: 200 ready", "probe drain: 503 draining then restored"} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("output missing %q:\n%s", want, stdout.String())
		}
	}

	art, err := stats.ReadServingArtifact(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(art.Scenarios) != 2 || art.Host.NumCPU < 1 {
		t.Fatalf("artifact: %+v", art)
	}
	// A healthy run against an undegraded server stamps rung 0.
	if art.Meta["degrade_rung"] != "0" {
		t.Errorf("meta degrade_rung = %q, want \"0\"", art.Meta["degrade_rung"])
	}
	for _, sc := range art.Scenarios {
		if sc.OK != 24 || sc.P99NS < sc.P50NS || sc.P50NS <= 0 || sc.MaxNS < sc.P999NS {
			t.Fatalf("scenario %s: %+v", sc.Name, sc)
		}
	}

	// The artifact gates cleanly against itself, and a doctored slower
	// baseline trips the p99 gate through the benchcmp CLI.
	var cmpOut strings.Builder
	if err := RunBenchCmp([]string{"-baseline", out, "-current", out,
		"-require", "closed-c1,closed-c2"}, &cmpOut, &cmpOut); err != nil {
		t.Fatalf("self-compare: %v\n%s", err, cmpOut.String())
	}
	fast := *art
	fast.Scenarios = append([]stats.ServingScenario(nil), art.Scenarios...)
	for i := range fast.Scenarios {
		fast.Scenarios[i].P99NS /= 10
	}
	fastPath := filepath.Join(t.TempDir(), "fast.json")
	if err := fast.WriteFile(fastPath); err != nil {
		t.Fatal(err)
	}
	cmpOut.Reset()
	if err := RunBenchCmp([]string{"-baseline", fastPath, "-current", out, "-min-wall-ns", "1"},
		&cmpOut, &cmpOut); err == nil {
		t.Fatalf("10x p99 regression passed the gate:\n%s", cmpOut.String())
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("daemon exit: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("daemon did not stop")
	}
}

// TestRunLoadGenClosesIdleConnections: RunLoadGen leaves no keep-alive
// connection open behind it. A server's graceful shutdown waits on an
// idle connection until its idle timeout, and on one the client dialed
// but never used for net/http's 5 s grace, so a daemon stopped right
// after a run would stall on either.
func TestRunLoadGenClosesIdleConnections(t *testing.T) {
	var mu sync.Mutex
	open := map[net.Conn]bool{}
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "{}")
	}))
	srv.Config.ConnState = func(c net.Conn, s http.ConnState) {
		mu.Lock()
		defer mu.Unlock()
		if s == http.StateClosed || s == http.StateHijacked {
			delete(open, c)
		} else {
			open[c] = true
		}
	}
	srv.Start()
	defer srv.Close()

	var out strings.Builder
	if err := RunLoadGen([]string{"-url", srv.URL, "-graph", "g",
		"-mode", "closed", "-c", "2", "-n", "8", "-warmup", "1"}, &out, &out); err != nil {
		t.Fatalf("loadgen: %v\noutput:\n%s", err, out.String())
	}
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		mu.Lock()
		n := len(open)
		mu.Unlock()
		if n == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d connections still open 2 s after RunLoadGen returned", n)
		}
	}
}
