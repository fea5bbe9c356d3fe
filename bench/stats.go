package main

import (
	"math"
	"sort"
)

// sample is one latency observation. A batch call that completes w ops at
// once contributes its per-op latency with weight w, so batch workloads and
// single-op workloads pool into one per-op distribution.
type sample struct {
	v float64
	w float64
}

// weightedQuantile returns the smallest value whose cumulative weight
// reaches p of the total (nearest-rank on weights). Empty input yields NaN.
func weightedQuantile(s []sample, p float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	s = append([]sample(nil), s...)
	sort.Slice(s, func(i, j int) bool { return s[i].v < s[j].v })
	var total float64
	for _, x := range s {
		total += x.w
	}
	var cum float64
	for _, x := range s {
		cum += x.w
		if cum >= p*total {
			return x.v
		}
	}
	return s[len(s)-1].v
}

// quantile is the p-quantile of v by linear interpolation between closest
// ranks — Python's statistics.quantiles(method="exclusive") rule, which is
// what the acceptance pipeline uses for quartiles.
func quantile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := p * float64(len(s)+1)
	j := int(pos)
	switch {
	case j < 1:
		return s[0]
	case j >= len(s):
		return s[len(s)-1]
	}
	return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// spread is the interquartile distance as a share of the median.
func spread(v []float64) float64 {
	m := median(v)
	if len(v) < 2 || m == 0 {
		return 0
	}
	return (quantile(v, 0.75) - quantile(v, 0.25)) / math.Abs(m)
}
