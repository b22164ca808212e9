package main

import (
	"math"
	"slices"
)

// dist summarizes the trial-to-trial distribution of one metric.
type dist struct {
	N              int
	Q1, Median, Q3 float64
}

// Spread is the interquartile distance as a share of the median — the
// figure the acceptance rule compares against a metric's bound.
func (d dist) Spread() float64 {
	if d.Median == 0 {
		return 0
	}
	return (d.Q3 - d.Q1) / math.Abs(d.Median)
}

// summarize computes the quartiles the way Python's
// statistics.quantiles(values, n=4) does (exclusive method), so the
// spreads printed here are the ones the acceptance rule recomputes.
func summarize(values []float64) dist {
	v := slices.Clone(values)
	slices.Sort(v)
	n := len(v)
	if n == 0 {
		return dist{}
	}
	q := func(k int) float64 {
		if n == 1 {
			return v[0]
		}
		j := min(max(k*(n+1)/4, 1), n-1)
		delta := float64(k*(n+1) - 4*j)
		return (v[j-1]*(4-delta) + v[j]*delta) / 4
	}
	return dist{N: n, Q1: q(1), Median: q(2), Q3: q(3)}
}

// percentile returns the p-th percentile (0..100) of sorted samples by
// nearest rank; sorted must be ascending and non-empty.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	return sorted[min(max(rank, 1), len(sorted))-1]
}
