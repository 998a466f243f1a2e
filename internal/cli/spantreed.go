package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"spantree"
	"spantree/internal/gen"
	"spantree/internal/serve"
)

// multiFlag collects a repeatable string flag.
type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ",") }
func (m *multiFlag) Set(v string) error { *m = append(*m, v); return nil }

// parseGraphSpec parses a -graph preload value of the form
// name=kind:n[:m[:k[:seed]]], e.g. small=torus2d:4096 or
// web=random:100000:250000:0:7.
func parseGraphSpec(v string) (string, gen.Spec, error) {
	name, rest, ok := strings.Cut(v, "=")
	if !ok || name == "" || rest == "" {
		return "", gen.Spec{}, fmt.Errorf("spantreed: -graph %q: want name=kind:n[:m[:k[:seed]]]", v)
	}
	parts := strings.Split(rest, ":")
	if len(parts) < 2 || len(parts) > 5 {
		return "", gen.Spec{}, fmt.Errorf("spantreed: -graph %q: want name=kind:n[:m[:k[:seed]]]", v)
	}
	spec := gen.Spec{Kind: parts[0]}
	nums := make([]uint64, 0, 4)
	for _, p := range parts[1:] {
		u, err := strconv.ParseUint(p, 10, 63)
		if err != nil {
			return "", gen.Spec{}, fmt.Errorf("spantreed: -graph %q: %v", v, err)
		}
		nums = append(nums, u)
	}
	spec.N = int(nums[0])
	if len(nums) > 1 {
		spec.M = int(nums[1])
	}
	if len(nums) > 2 {
		spec.K = int(nums[2])
	}
	if len(nums) > 3 {
		spec.Seed = nums[3]
	}
	return name, spec, nil
}

// RunSpanTreeD is the entry point of cmd/spantreed: boot the serving
// front end, preload any -graph specs, and serve until SIGINT/SIGTERM.
func RunSpanTreeD(args []string, stdout, stderr io.Writer) error {
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	return runSpanTreeD(ctx, args, stdout, stderr)
}

// runSpanTreeD is RunSpanTreeD with caller-owned lifetime, so tests can
// boot a real server on :0 and stop it by canceling the context.
func runSpanTreeD(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("spantreed", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var graphs multiFlag
	var (
		addr     = fs.String("addr", "127.0.0.1:8080", "listen address (host:port; port 0 picks a free port)")
		procs    = fs.Int("p", 0, "virtual processors per session (0 = min(NumCPU, 4))")
		pool     = fs.Int("pool", 2, "sessions per registered graph")
		inflight = fs.Int("inflight", 0, "max concurrent /v1/spantree requests (0 = 2*pool)")
		maxVerts = fs.Int("max-vertices", 0, "reject graph registrations with more vertices than this, or with more than 20 times as many edges (0 = 1<<22)")
		timeout  = fs.Duration("timeout", 10*time.Second, "per-request deadline cap (also the default deadline)")
		stall    = fs.Duration("stall-budget", 0, "stuck-run watchdog: abort a run in which no worker advances for this long with a typed 503 (0 disables)")
		journal  = fs.String("journal", "", "crash-safe registry journal file: replayed on boot, fsynced on every graph mutation (empty disables)")
		coolDown = fs.Duration("cool-down", 0, "degradation ladder cool-down before a degraded graph climbs back a rung (0 = 30s)")
		chaosS   = fs.Uint64("chaos-seed", 0, "serving-layer fault injection seed (chaos builds only; 0 disables)")
	)
	fs.Var(&graphs, "graph", "preload a graph: name=kind:n[:m[:k[:seed]]] (repeatable)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *chaosS != 0 && !spantree.ChaosEnabled {
		return fmt.Errorf("spantreed: -chaos-seed requires a binary built with -tags chaos")
	}
	srv := serve.New(serve.Config{
		NumProcs:    *procs,
		PoolSize:    *pool,
		MaxInFlight: *inflight,
		MaxVertices: *maxVerts,
		MaxTimeout:  *timeout,
		StallBudget: *stall,
		CoolDown:    *coolDown,
		ChaosSeed:   *chaosS,
	})
	defer srv.Close()
	if *journal != "" {
		// Replay before preloads: preloaded names already in the journal
		// come back from the replay, and the preload loop's conflict error
		// below is suppressed for exact duplicates.
		if err := srv.OpenJournal(*journal); err != nil {
			return fmt.Errorf("spantreed: journal: %w", err)
		}
	}
	for _, v := range graphs {
		name, spec, err := parseGraphSpec(v)
		if err != nil {
			return err
		}
		if err := srv.Register(name, spec); err != nil {
			if *journal != "" && serve.IsConflict(err) {
				fmt.Fprintf(stdout, "preload %s restored from journal\n", name)
				continue
			}
			return fmt.Errorf("spantreed: preload %q: %w", name, err)
		}
		fmt.Fprintf(stdout, "preloaded %s (%s, n=%d)\n", name, spec.Kind, spec.N)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()
	// The smoke scripts wait for this exact line before sending load.
	fmt.Fprintf(stdout, "spantreed listening on http://%s\n", ln.Addr())

	select {
	case <-ctx.Done():
		// Flip readiness first so load balancers stop routing here while
		// in-flight requests drain through Shutdown.
		srv.BeginDrain()
		shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := hs.Shutdown(shutCtx); err != nil {
			return err
		}
		<-errCh
		fmt.Fprintln(stdout, "spantreed stopped")
		return nil
	case err := <-errCh:
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	}
}
