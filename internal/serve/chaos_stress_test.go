//go:build chaos

package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"spantree/internal/gen"
	"spantree/internal/leakcheck"
)

// The serving-layer chaos stress suite (chaos builds only, run under
// -race in CI). The contract under injected faults — slow sessions,
// wedged requests, aimed handler panics, journal write failures — is
// absolute: every response is a 200 or a *typed* error body, no
// goroutine outlives its server, and the registry never diverges from
// its journal. A failing seed replays deterministically: every fault in
// a run is drawn from (ChaosSeed, request id).

// chaosStressSeeds is the seed sweep width; the ISSUE floor is 50.
const chaosStressSeeds = 50

// typedStatuses is the full set of statuses the serving layer may emit
// for /v1/spantree under chaos, mapped to the code each must carry.
var typedStatuses = map[int][]string{
	http.StatusTooManyRequests:     {CodeOverloaded},
	StatusClientClosedRequest:      {CodeCanceled},
	http.StatusServiceUnavailable:  {CodeStalled},
	http.StatusGatewayTimeout:      {CodeDeadline},
	http.StatusNotFound:            {CodeNotFound},
	http.StatusInternalServerError: {CodeInternal},
}

// TestServeChaosStressSeeds sweeps chaosStressSeeds seeded fault
// schedules through a live server: concurrent clients, every fault kind
// armed at its default probability. Assertions per response: the status
// is in the typed set and the body decodes to the matching code — an
// untyped 500, an empty body, or a transport-level drop fails the seed.
// Across the whole sweep the goroutine count must come back flat.
func TestServeChaosStressSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos stress sweep is not a -short test")
	}
	base := runtime.NumGoroutine()
	var injected, faults int64
	for seed := uint64(1); seed <= chaosStressSeeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			s := New(Config{
				NumProcs: 2, PoolSize: 1, MaxInFlight: 4,
				MaxTimeout:  60 * time.Millisecond,
				StallBudget: 25 * time.Millisecond,
				CoolDown:    time.Millisecond,
				ChaosSeed:   seed,
			})
			defer s.Close()
			if err := s.Register("g", gen.Spec{Kind: "chain", N: 256}); err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(s)
			defer ts.Close()
			var wg sync.WaitGroup
			errCh := make(chan error, 64)
			var mu sync.Mutex
			local := 0
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < 6; i++ {
						resp, raw := postJSON(t, ts.URL+"/v1/spantree",
							SpanTreeRequest{Graph: "g", Seed: uint64(w*100 + i), TimeoutMS: 50})
						if resp.StatusCode == http.StatusOK {
							continue
						}
						mu.Lock()
						local++
						mu.Unlock()
						codes, ok := typedStatuses[resp.StatusCode]
						if !ok {
							errCh <- fmt.Errorf("seed %d: untyped status %d (%s)", seed, resp.StatusCode, raw)
							return
						}
						var e ErrorBody
						if err := json.Unmarshal(raw, &e); err != nil || e.Error == "" {
							errCh <- fmt.Errorf("seed %d: status %d without a typed body: %q", seed, resp.StatusCode, raw)
							return
						}
						found := false
						for _, c := range codes {
							if e.Error == c {
								found = true
							}
						}
						if !found {
							errCh <- fmt.Errorf("seed %d: status %d carries code %q, want one of %v", seed, resp.StatusCode, e.Error, codes)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			close(errCh)
			for err := range errCh {
				t.Fatal(err)
			}
			injected += s.inj.Injections()
			faults += int64(local)
		})
	}
	if injected == 0 {
		t.Fatal("the sweep injected nothing — the chaos plumbing is dead")
	}
	t.Logf("sweep: %d injected faults, %d non-200 responses, all typed", injected, faults)
	// Goroutine-flat across 50 server lifecycles, with slack for
	// netpoller and timer goroutines.
	leakcheck.Settle(t, base+4)
}

// TestServeChaosJournalConsistency drives registry mutations through a
// journal whose writes fail from the seeded fault stream. The contract:
// a mutation answered 201/200 is durable, a mutation answered the typed
// journal 500 never happened — so a fresh server replaying the same
// file must reconstruct exactly the acknowledged set.
func TestServeChaosJournalConsistency(t *testing.T) {
	path := filepath.Join(t.TempDir(), "registry.journal")
	s := New(Config{NumProcs: 1, PoolSize: 1, ChaosSeed: 11})
	if err := s.OpenJournal(path); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()

	live := map[string]bool{}
	journalFaults := 0
	for i := 0; i < 30; i++ {
		name := fmt.Sprintf("g%02d", i)
		resp, raw := postJSON(t, ts.URL+"/v1/graphs",
			RegisterRequest{Name: name, Kind: "chain", N: 16})
		switch resp.StatusCode {
		case http.StatusCreated:
			live[name] = true
		case http.StatusInternalServerError:
			if e := decodeError(t, raw); e.Error != CodeJournal {
				t.Fatalf("register %s: 500 code %q, want %q", name, e.Error, CodeJournal)
			}
			journalFaults++
		default:
			t.Fatalf("register %s: status %d body %s", name, resp.StatusCode, raw)
		}
	}
	// Evict every other acknowledged graph; evictions hit the same
	// faulty disk, and a refused one must leave the graph live.
	names := make([]string, 0, len(live))
	for n := range live {
		names = append(names, n)
	}
	sort.Strings(names)
	for i, n := range names {
		if i%2 != 0 {
			continue
		}
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/graphs/"+n, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var e ErrorBody
		json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusOK:
			delete(live, n)
		case http.StatusInternalServerError:
			if e.Error != CodeJournal {
				t.Fatalf("evict %s: 500 code %q, want %q", n, e.Error, CodeJournal)
			}
			journalFaults++
		default:
			t.Fatalf("evict %s: status %d", n, resp.StatusCode)
		}
	}
	if journalFaults == 0 {
		t.Fatal("no journal fault fired — pick a different seed")
	}
	s.Close()

	// The replayed registry is exactly the acknowledged set.
	r := New(Config{NumProcs: 1, PoolSize: 1})
	defer r.Close()
	if err := r.OpenJournal(path); err != nil {
		t.Fatalf("replay: %v", err)
	}
	got := make(map[string]bool)
	for _, info := range r.listGraphs() {
		got[info.Name] = true
	}
	if len(got) != len(live) {
		t.Fatalf("replayed %d graphs, acknowledged %d", len(got), len(live))
	}
	for n := range live {
		if !got[n] {
			t.Fatalf("acknowledged graph %s lost in replay", n)
		}
	}
	t.Logf("%d journal faults, %d graphs survived consistently", journalFaults, len(live))
}
