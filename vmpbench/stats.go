package main

import (
	"math"
	"slices"
)

// minBeyond is how many samples must lie beyond a percentile before it
// is reported as supported: a p99 over 200 samples rests on two values
// and moves with any one of them.
const minBeyond = 10

// rank returns the 1-based nearest-rank position of the q-quantile in
// n sorted samples: the smallest rank r with r >= q·n. The epsilon
// keeps 0.99·1000 from rounding up to rank 991.
func rank(n int, q float64) int {
	r := int(math.Ceil(q*float64(n) - 1e-9))
	return min(max(r, 1), n)
}

// quantile returns the nearest-rank q-quantile of sorted samples, or 0
// for an empty sample. Unlike interpolating estimators it always
// returns a value that was actually observed.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), q)-1]
}

// beyond counts the samples strictly above the q-quantile's rank.
func beyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	return n - rank(n, q)
}

// supported reports whether n samples hold at least minBeyond values
// beyond the q-quantile.
func supported(n int, q float64) bool { return beyond(n, q) >= minBeyond }

// median returns the nearest-rank median of unsorted values.
func median(vals []float64) float64 {
	s := slices.Clone(vals)
	slices.Sort(s)
	return quantile(s, 0.5)
}

// latency summarizes one latency distribution in milliseconds. Failed
// operations enter as +Inf, so they miss every latency limit; a
// reported quantile that lands on one reads as the failure ceiling.
type latency struct {
	N            int     `json:"n"`
	Failed       int     `json:"failed"`
	P50          float64 `json:"p50_ms"`
	P90          float64 `json:"p90_ms"`
	P99          float64 `json:"p99_ms"`
	Max          float64 `json:"max_ms"`
	P99Supported bool    `json:"p99_supported"`
}

// summarize sorts ms in place and reports its median, p90, p99 and max,
// with +Inf samples (failures) clamped to ceiling for reporting.
func summarize(ms []float64, ceiling float64) latency {
	slices.Sort(ms)
	failed := 0
	for _, v := range ms {
		if math.IsInf(v, 1) {
			failed++
		}
	}
	clamp := func(v float64) float64 { return min(v, ceiling) }
	out := latency{N: len(ms), Failed: failed, P99Supported: supported(len(ms), 0.99)}
	if len(ms) > 0 {
		out.P50 = clamp(quantile(ms, 0.5))
		out.P90 = clamp(quantile(ms, 0.9))
		out.P99 = clamp(quantile(ms, 0.99))
		out.Max = clamp(ms[len(ms)-1])
	}
	return out
}
