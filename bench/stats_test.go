package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted
	}
	for _, tc := range []struct {
		q        float64
		want     float64
		resolved bool
	}{
		{0.5, 50, true},
		{0.9, 90, true}, // exactly ten samples beyond
		{0.91, 91, false},
		{0.99, 99, false},
		{1, 100, false},
	} {
		got, ok := percentile(xs, tc.q)
		if got != tc.want || ok != tc.resolved {
			t.Errorf("percentile(1..100, %v) = %v, %v; want %v, %v", tc.q, got, ok, tc.want, tc.resolved)
		}
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("an empty sample must not resolve")
	}
	// The p99 of 1000 samples rests on ten beyond it; of 999, on nine.
	big := make([]float64, 1000)
	if _, ok := percentile(big, 0.99); !ok {
		t.Error("p99 of 1000 samples should resolve")
	}
	if _, ok := percentile(big[:999], 0.99); ok {
		t.Error("p99 of 999 samples should not resolve")
	}
}

func TestFailuresCountAsInfinity(t *testing.T) {
	xs := []float64{1, 2, 3, failed, 5, 6, 7, 8, 9, failed}
	if p50, _ := percentile(xs, 0.5); p50 != 6 {
		t.Errorf("p50 = %v, want 6: failures sort above every latency", p50)
	}
	if p90, _ := percentile(xs, 0.9); !math.IsInf(p90, 1) {
		t.Errorf("p90 = %v, want +Inf: two of ten requests failed", p90)
	}
	if got := finite(failed); got != math.MaxFloat64 {
		t.Errorf("finite(+Inf) = %v, want the largest float", got)
	}
}

func TestSpeedupsFromPairs(t *testing.T) {
	if s := slowdown(30, 60); s != 0.5 {
		t.Errorf("slowdown(30, 60) = %v, want 0.5", s)
	}
	for _, pair := range [][2]float64{{failed, 60}, {30, failed}, {30, 0}} {
		if s := slowdown(pair[0], pair[1]); !math.IsInf(s, 1) {
			t.Errorf("slowdown(%v, %v) = %v, want +Inf: a failed half fails the pair", pair[0], pair[1], s)
		}
	}
	// Nine fast pairs and one slow one: the median pair ran in half its
	// BFS's time; the slow pair lifts the mean slowdown to 0.8.
	xs := []float64{0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 3.5}
	p50, mean := speedups(xs)
	if p50 != 2 || math.Abs(mean-1.25) > 1e-12 {
		t.Errorf("speedups = %v, %v; want 2, 1.25", p50, mean)
	}
	// One failed pair drives the mean speedup to 0; the median holds.
	xs[3] = failed
	if p50, mean := speedups(xs); p50 != 2 || mean != 0 {
		t.Errorf("speedups with a failed pair = %v, %v; want 2, 0", p50, mean)
	}
}
