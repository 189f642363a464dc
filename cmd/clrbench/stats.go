package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// samples: the smallest sample with at least p% of all samples at or below
// it. It sorts a copy, so callers may pass live slices. Empty input gives 0.
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := sortedCopy(samples)
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// median is the middle sample, or the mean of the two middle samples.
func median(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := sortedCopy(samples)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles by the "exclusive"
// method of Python's statistics.quantiles(data, n=4), the definition the
// benchmark's spread limits are stated in.
func quartiles(samples []float64) (q1, q3 float64) {
	s := sortedCopy(samples)
	switch len(s) {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	n := len(s)
	m := n + 1
	q := func(i int) float64 {
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(3)
}

// spread is the interquartile range as a share of the median: the
// run-to-run noise measure the bounds in BENCHMARK.json are checked against.
func spread(samples []float64) float64 {
	med := median(samples)
	if med == 0 {
		return 0
	}
	q1, q3 := quartiles(samples)
	return (q3 - q1) / math.Abs(med)
}

func mean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	t := 0.0
	for _, v := range samples {
		t += v
	}
	return t / float64(len(samples))
}

// ratio is num/den, or 0 when nothing was counted.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func sortedCopy(samples []float64) []float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s
}
