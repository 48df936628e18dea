package main

import (
	"math"
	"sort"
)

// quartiles returns Q1, median and Q3 of xs by the same rule as Python's
// statistics.quantiles(xs, n=4) (the default "exclusive" method), so the
// spreads printed here match the ones an outside checker computes.
func quartiles(xs []float64) (q1, med, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	switch len(d) {
	case 0:
		return 0, 0, 0
	case 1:
		return d[0], d[0], d[0]
	}
	const n = 4
	ld := len(d)
	m := ld + 1
	var q [n - 1]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		q[i-1] = (d[j-1]*float64(n-delta) + d[j]*float64(delta)) / n
	}
	return q[0], median(d), q[2]
}

// median returns the middle value of xs, or the mean of the middle two.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	mid := len(d) / 2
	if len(d)%2 == 1 {
		return d[mid]
	}
	return (d[mid-1] + d[mid]) / 2
}

func sum(xs []float64) (s float64) {
	for _, x := range xs {
		s += x
	}
	return s
}

// perMsg normalises a count by the messages the benchmark asked for; never by
// scheduler events, so a change that removes events does not read as a
// slowdown.
func perMsg(count float64, msgs int) float64 { return ratio(count, float64(msgs)) }

// ratio returns a/b, or 0 when b is 0 (a layer absent from the workload).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// nearestRank returns the p-th percentile (0 < p ≤ 100) of xs by the
// nearest-rank rule.
func nearestRank(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	k := int(math.Ceil(p/100*float64(len(d)))) - 1
	return d[max(0, min(k, len(d)-1))]
}
