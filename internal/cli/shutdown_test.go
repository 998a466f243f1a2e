package cli

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"spantree/internal/leakcheck"
	"spantree/internal/serve"
)

// bootDaemon starts runSpanTreeD on an ephemeral port and returns its
// base URL plus the exit channel.
func bootDaemon(t *testing.T, ctx context.Context, args []string, out *syncBuffer) (string, chan error) {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		done <- runSpanTreeD(ctx, append([]string{"-addr", "127.0.0.1:0"}, args...), out, out)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatalf("daemon never announced its address; output:\n%s", out.String())
		}
		for _, line := range strings.Split(out.String(), "\n") {
			if rest, ok := strings.CutPrefix(line, "spantreed listening on "); ok {
				return strings.TrimSpace(rest), done
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSpanTreeDShutdownUnderLoadGoroutineFlat: SIGTERM (context cancel)
// while concurrent clients are mid-request must drain cleanly — the
// daemon exits nil within its shutdown budget and the process comes
// back goroutine-flat, with no worker team or handler goroutine left
// behind.
func TestSpanTreeDShutdownUnderLoadGoroutineFlat(t *testing.T) {
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var daemonOut syncBuffer
	url, done := bootDaemon(t, ctx,
		[]string{"-p", "2", "-pool", "2", "-stall-budget", "1s", "-graph", "g=chain:4096"},
		&daemonOut)

	client := &http.Client{Timeout: 5 * time.Second}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				body, _ := json.Marshal(serve.SpanTreeRequest{Graph: "g", Seed: uint64(w*1000 + i)})
				resp, err := client.Post(url+"/v1/spantree", "application/json", bytes.NewReader(body))
				if err != nil {
					return // server is gone; that's the point
				}
				resp.Body.Close()
			}
		}(w)
	}
	time.Sleep(150 * time.Millisecond) // let load reach steady state
	cancel()                           // the SIGTERM path: BeginDrain, then Shutdown
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("daemon exit under load: %v\noutput:\n%s", err, daemonOut.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not stop under load")
	}
	close(stop)
	wg.Wait()
	client.CloseIdleConnections()

	leakcheck.Settle(t, base+2)
}

// TestSpanTreeDJournalRestart: a daemon booted with -journal restores
// its registry on restart — the preloads come back from the file (the
// conflict is tolerated and reported), graphs registered over HTTP
// survive, and GET /v1/graphs serves byte-for-byte the same list.
func TestSpanTreeDJournalRestart(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "registry.journal")
	args := []string{"-p", "1", "-pool", "1", "-journal", journal, "-graph", "pre=chain:64"}

	ctx1, cancel1 := context.WithCancel(context.Background())
	defer cancel1()
	var out1 syncBuffer
	url1, done1 := bootDaemon(t, ctx1, args, &out1)
	body, _ := json.Marshal(serve.RegisterRequest{Name: "extra", Kind: "torus2d", N: 256, Seed: 5})
	resp, err := http.Post(url1+"/v1/graphs", "application/json", bytes.NewReader(body))
	if err != nil || resp.StatusCode != http.StatusCreated {
		t.Fatalf("register extra: %v %v", resp.StatusCode, err)
	}
	resp.Body.Close()
	want := getBody(t, url1+"/v1/graphs")
	cancel1()
	if err := <-done1; err != nil {
		t.Fatalf("first daemon exit: %v", err)
	}

	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	var out2 syncBuffer
	url2, done2 := bootDaemon(t, ctx2, args, &out2)
	got := getBody(t, url2+"/v1/graphs")
	if string(got) != string(want) {
		t.Fatalf("graph list after restart:\n got %s\nwant %s", got, want)
	}
	if !strings.Contains(out2.String(), "preload pre restored from journal") {
		t.Errorf("restart did not report the journal-restored preload:\n%s", out2.String())
	}
	cancel2()
	if err := <-done2; err != nil {
		t.Fatalf("second daemon exit: %v", err)
	}
}

func getBody(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
