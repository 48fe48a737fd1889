package main

import (
	"math"
	"slices"
	"testing"
)

func TestQuantileNearestRank(t *testing.T) {
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, tc := range []struct {
		q    float64
		want float64
	}{
		{0.1, 1}, {0.5, 5}, {0.51, 6}, {0.9, 9}, {0.99, 10}, {1, 10}, {0, 1},
	} {
		if got := quantile(ten, tc.q); got != tc.want {
			t.Errorf("quantile(1..10, %v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %v, want 0", got)
	}
	thousand := make([]float64, 1000)
	for i := range thousand {
		thousand[i] = float64(i + 1)
	}
	if got := quantile(thousand, 0.99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990 (rank 990, not 991)", got)
	}
}

func TestTenBeyondRule(t *testing.T) {
	for _, tc := range []struct {
		n    int
		q    float64
		ok   bool
		left int
	}{
		{1000, 0.99, true, 10},
		{999, 0.99, false, 9},
		{1200, 0.99, true, 12},
		{100, 0.9, true, 10},
		{99, 0.9, false, 9},
		{20, 0.5, true, 10},
		{0, 0.5, false, 0},
	} {
		if got := beyond(tc.n, tc.q); got != tc.left {
			t.Errorf("beyond(%d, %v) = %d, want %d", tc.n, tc.q, got, tc.left)
		}
		if got := supported(tc.n, tc.q); got != tc.ok {
			t.Errorf("supported(%d, %v) = %v, want %v", tc.n, tc.q, got, tc.ok)
		}
	}
}

func TestSummarizeCountsFailuresAsMissingEveryLimit(t *testing.T) {
	lat := make([]float64, 0, 1000)
	for i := 0; i < 985; i++ {
		lat = append(lat, 1)
	}
	for i := 0; i < 15; i++ {
		lat = append(lat, math.Inf(1)) // failed requests
	}
	s := summarize(lat, 5000)
	if s.N != 1000 || s.Failed != 15 {
		t.Fatalf("n=%d failed=%d, want 1000 and 15", s.N, s.Failed)
	}
	if s.P50 != 1 {
		t.Errorf("p50 = %v, want 1", s.P50)
	}
	if s.P99 != 5000 || s.Max != 5000 {
		t.Errorf("p99=%v max=%v: failures must land on the ceiling", s.P99, s.Max)
	}
	if !s.P99Supported {
		t.Error("1000 samples support p99")
	}
}

func TestMedianLeavesInputAlone(t *testing.T) {
	in := []float64{3, 1, 2}
	if got := median(in); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
	if !slices.Equal(in, []float64{3, 1, 2}) {
		t.Errorf("median reordered its input: %v", in)
	}
}
