package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"time"
)

// bootFunc starts a fresh serving backend and returns its base URL and a
// stop function that returns once the backend has exited.
type bootFunc func(ctx context.Context) (base string, stop func(), err error)

const (
	bootTimeout    = 60 * time.Second
	stopTimeout    = 15 * time.Second
	requestTimeout = 60 * time.Second
)

// daemonBoot starts bin, a spantreed built from this tree, in its
// production posture: two workers per session, two sessions per graph,
// a 5 s stuck-run budget, and the auto layout and shard policies.
func daemonBoot(bin string) bootFunc {
	return func(ctx context.Context) (string, func(), error) {
		if bin == "" {
			return "", nil, errors.New("the serving workloads need -daemon, the spantreed binary (run.sh builds it)")
		}
		cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-p", fmt.Sprint(procs), "-pool", "2", "-stall-budget", "5s")
		cmd.Stderr = os.Stderr
		out, err := cmd.StdoutPipe()
		if err != nil {
			return "", nil, err
		}
		if err := cmd.Start(); err != nil {
			return "", nil, fmt.Errorf("starting spantreed: %w", err)
		}
		// The reader drains stdout until the daemon exits, so the daemon
		// never blocks on a full pipe; it hands over the listening address.
		addr := make(chan string, 1)
		drained := make(chan struct{})
		go func() {
			defer close(drained)
			sc := bufio.NewScanner(out)
			for sc.Scan() {
				if a, ok := strings.CutPrefix(sc.Text(), "spantreed listening on "); ok {
					addr <- a
				}
			}
		}()
		stop := func() {
			_ = cmd.Process.Signal(syscall.SIGTERM)
			select {
			case <-drained:
			case <-time.After(stopTimeout):
				_ = cmd.Process.Kill()
				<-drained
			}
			_ = cmd.Wait() // a daemon killed on the way out exits non-zero; nothing to report
		}
		select {
		case a := <-addr:
			return a, stop, nil
		case <-drained:
			stop()
			return "", nil, errors.New("spantreed exited before listening")
		case <-time.After(bootTimeout):
			stop()
			return "", nil, fmt.Errorf("spantreed not listening after %v", bootTimeout)
		case <-ctx.Done():
			stop()
			return "", nil, ctx.Err()
		}
	}
}

// client is one keep-alive connection to the backend.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{
		Timeout: requestTimeout,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends body (nil for none) as JSON and, on a 2xx status, decodes the
// response into out (when non-nil). A non-2xx status is not an error.
func (c *client) do(method, path string, body, out any) (int, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return 0, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode/100 == 2 && out != nil {
		if err := json.Unmarshal(b, out); err != nil {
			return resp.StatusCode, fmt.Errorf("decoding %s %s: %w", method, path, err)
		}
	}
	return resp.StatusCode, nil
}
