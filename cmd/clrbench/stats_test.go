package main

import "testing"

func TestPercentileNearestRank(t *testing.T) {
	samples := []float64{50, 15, 40, 20, 35} // sorted: 15 20 35 40 50
	for _, c := range []struct{ p, want float64 }{
		{1, 15}, {20, 15}, {21, 20}, {30, 20}, {40, 20}, {50, 35}, {90, 50}, {100, 50},
	} {
		if got := percentile(samples, c.p); got != c.want {
			t.Errorf("percentile(p=%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
	if samples[0] != 50 {
		t.Errorf("percentile reordered its input")
	}
}

// The expected values are Python's statistics.quantiles(data, n=4).
func TestQuartilesMatchPythonExclusive(t *testing.T) {
	for _, c := range []struct {
		data   []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
		{[]float64{3, 1}, 0.5, 3.5},
		{[]float64{10, 12, 9, 11, 30, 10.5, 9.5}, 9.5, 12},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{7}, 7, 7},
	} {
		q1, q3 := quartiles(c.data)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.data, q1, q3, c.q1, c.q3)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := spread([]float64{1, 2, 3, 4}); got != 1 {
		t.Errorf("spread = %v, want (3.75-1.25)/2.5 = 1", got)
	}
}
