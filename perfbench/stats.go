package main

import (
	"math"
	"slices"
)

// percentile returns the q-quantile (0 < q <= 1) of the samples by the
// nearest-rank rule: the smallest sample with at least q·n samples at or
// below it. It sorts samples in place; an empty slice yields 0.
func percentile(samples []int64, q float64) int64 {
	if len(samples) == 0 {
		return 0
	}
	slices.Sort(samples)
	rank := int(math.Ceil(q*float64(len(samples)))) - 1
	return samples[max(0, min(rank, len(samples)-1))]
}

// rateHint is an upper estimate of the completions per second of any
// workload on the reference machine. Sample buffers are sized from it up
// front: growing a buffer of millions of samples by append copies it, and
// a copy of that size inside a measured window would stall the client
// with every request in flight and show in the p99.
const rateHint = 600_000

// sampleCap is the sample buffer capacity for one of n recorders sharing a
// window of d seconds.
func sampleCap(secs float64, n int) int { return int(secs * rateHint / float64(n)) }

// minTailSamples is the fewest latency samples a window needs for its p99
// to have ten samples beyond it.
const minTailSamples = 1000

// median returns the median of xs (the mean of the two middle values for an
// even count) without reordering xs; an empty slice yields 0.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean returns the arithmetic mean of xs; an empty slice yields 0.
func mean(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return ratio(t, float64(len(xs)))
}

// quartiles returns the first and third quartiles of xs by the "exclusive"
// method of Python's statistics.quantiles(xs, n=4), the rule the spread of
// repeated runs is judged by. It needs at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	// CPython's integer arithmetic, including its clamp of the index to
	// 1..n-1 (which extrapolates for n = 2).
	at := func(i int) float64 {
		m := n + 1
		j := max(1, min(i*m/4, n-1))
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// relSpread is the interquartile distance of xs as a share of its median (0
// when the median is 0).
func relSpread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}

// ratio is num/den, or 0 when den is 0 (a layer the workload never reached).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// windowStats are one measured window's end-to-end figures, each over the
// whole window: throughput is its completions over its length, opsPerCPU
// its completions over the CPU time the program under test spent in it,
// and every percentile is taken over all of its latency samples.
type windowStats struct {
	ops, tput, opsPerCPU, p50, p90, p99, getP50, putP50 float64
	samples, gets, puts                                 int
}

// summarize computes a window's figures from its completions, its length
// and the program's CPU time in it (both in seconds), and its latency
// samples in nanoseconds, split by operation kind (engine-bank passes its
// transactions as puts). It sorts the samples in place.
func summarize(ops, secs, cpuSecs float64, getNs, putNs []int64) windowStats {
	all := make([]int64, 0, len(getNs)+len(putNs))
	all = append(append(all, getNs...), putNs...)
	us := func(ns []int64, q float64) float64 { return float64(percentile(ns, q)) / 1000 }
	return windowStats{
		ops: ops, tput: ratio(ops, secs), opsPerCPU: ratio(ops, cpuSecs),
		p50: us(all, 0.50), p90: us(all, 0.90), p99: us(all, 0.99),
		getP50: us(getNs, 0.50), putP50: us(putNs, 0.50),
		samples: len(all), gets: len(getNs), puts: len(putNs),
	}
}
