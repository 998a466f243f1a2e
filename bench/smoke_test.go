package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"spantree/internal/serve"
)

// inProcessBoot serves from an in-process serve.Server configured like
// the daemon daemonBoot starts.
func inProcessBoot(context.Context) (string, func(), error) {
	srv := serve.New(serve.Config{NumProcs: procs, PoolSize: 2, StallBudget: 5 * time.Second})
	ts := httptest.NewServer(srv)
	return ts.URL, func() { ts.Close(); srv.Close() }, nil
}

type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct {
		Name, Unit string
		Bound      float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

func TestBenchmarkFileMatchesCode(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, code has %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: file %q, code %q", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, file []metricDef, code []metricDef) {
		if len(file) != len(code) {
			t.Fatalf("%s: file has %d metrics, code has %d", kind, len(file), len(code))
		}
		for i := range file {
			if file[i] != code[i] {
				t.Errorf("%s %d: file %+v, code %+v", kind, i, file[i], code[i])
			}
		}
	}
	var e2e, layers []metricDef
	for _, m := range bf.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
	}
	for _, m := range bf.PerLayer {
		layers = append(layers, metricDef{m.Name, m.Unit})
	}
	check("end_to_end", e2e, endToEnd)
	check("per_layer", layers, perLayer)
}

// TestSmokeAllWorkloads runs every workload at n = 2^10 with 1 s windows,
// the serving ones against an in-process server, in the per-layer pass
// (which measures the end-to-end metrics too), and checks that every
// metric of BENCHMARK.json is emitted and every output was correct.
func TestSmokeAllWorkloads(t *testing.T) {
	known := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		known[d.name] = true
	}
	small := sizes{lib: 1 << 10, serveSmall: 1 << 10}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			cfg := config{seed: 3, window: time.Second, trace: true, sizes: small, boot: inProcessBoot}
			rep, tr, err := runOne(context.Background(), w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if rep.attempted == 0 || rep.failed != 0 {
				t.Fatalf("attempted %d, failed %d", rep.attempted, rep.failed)
			}
			for name := range rep.values {
				if !known[name] {
					t.Errorf("workload set %q, which BENCHMARK.json does not name", name)
				}
			}
			for _, d := range endToEnd {
				if v := rep.values[d.name]; !(v > 0) || math.IsInf(v, 0) {
					t.Errorf("end-to-end %s = %v, want finite and > 0", d.name, v)
				}
			}
			if len(tr.lanes) == 0 || len(tr.lanes[0].spans) == 0 {
				t.Error("the traced pass recorded no spans")
			}
			for _, set := range [][]metricDef{endToEnd, perLayer} {
				var out bytes.Buffer
				res := printReport(&out, w.name, rep, set)
				for _, d := range set {
					if _, ok := res.Metrics[d.name]; !ok {
						t.Errorf("%s not in the result object", d.name)
					}
					if !strings.Contains(out.String(), w.name+" "+d.name+" ") {
						t.Errorf("%s not printed", d.name)
					}
				}
			}
		})
	}
}
