package main

import (
	"math"
	"sort"
)

// median returns the middle of xs (the mean of the two middle values
// for an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest-percentile sample that still has at least
// ten samples above it in sorted order, and that percentile: with n
// sorted samples it is the nearest-rank percentile 100·(n-10)/n, the
// value at index n-11. Below 20 samples that percentile would fall
// under the median; tail then returns the maximum with percentile 100
// and ok=false, so the report can say the rule was not met.
func tail(xs []float64) (value, pct float64, ok bool) {
	n := len(xs)
	if n == 0 {
		return 0, 0, false
	}
	s := sortedCopy(xs)
	if n < 20 {
		return s[n-1], 100, false
	}
	return s[n-11], 100 * float64(n-10) / float64(n), true
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// span is a closed-open time interval [lo, hi) in seconds.
type span struct{ lo, hi float64 }

// union merges spans into a sorted list of disjoint intervals.
// Empty and inverted spans are dropped.
func union(spans []span) []span {
	var iv []span
	for _, s := range spans {
		if s.hi > s.lo {
			iv = append(iv, s)
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i].lo < iv[j].lo })
	var out []span
	for _, v := range iv {
		if n := len(out); n > 0 && v.lo <= out[n-1].hi {
			out[n-1].hi = math.Max(out[n-1].hi, v.hi)
			continue
		}
		out = append(out, v)
	}
	return out
}

// length is the total length of a disjoint span list.
func length(u []span) float64 {
	var t float64
	for _, s := range u {
		t += s.hi - s.lo
	}
	return t
}

// intersect returns the intervals covered by both a and b; both must
// be unions (sorted and disjoint).
func intersect(a, b []span) []span {
	var out []span
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		lo, hi := math.Max(a[i].lo, b[j].lo), math.Min(a[i].hi, b[j].hi)
		if hi > lo {
			out = append(out, span{lo, hi})
		}
		if a[i].hi < b[j].hi {
			i++
		} else {
			j++
		}
	}
	return out
}

// overlapFrac is the share of u's length also covered by other: the
// DMA (or collective) time hidden behind compute when u is a DMA lane
// union and other the compute lane union. 0 when u is empty.
func overlapFrac(u, other []span) float64 {
	t := length(u)
	if t == 0 {
		return 0
	}
	return length(intersect(u, other)) / t
}

// ratio is a/b, or 0 when b is 0, so absent work reads 0 rather than
// NaN (which JSON cannot carry).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
