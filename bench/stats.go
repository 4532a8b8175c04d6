package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0..1) of sorted by nearest rank.
func quantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// tailPercentiles are the candidates for a timing's tail, highest first.
var tailPercentiles = []float64{0.999, 0.99, 0.95, 0.90, 0.75}

// supportedTail returns the highest candidate percentile that has at least
// ten samples beyond it among n samples, or 0.5 when none has.
func supportedTail(n int) float64 {
	for _, p := range tailPercentiles {
		if float64(n)*(1-p) >= 10 {
			return p
		}
	}
	return 0.5
}

// timing summarises a set of latencies in nanoseconds.
type timing struct {
	n      int
	sorted []int64
}

func newTiming(ns []int64) timing {
	s := append([]int64(nil), ns...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return timing{n: len(s), sorted: s}
}

// ms returns the q-quantile in milliseconds.
func (t timing) ms(q float64) float64 { return float64(quantile(t.sorted, q)) / 1e6 }

// supports reports whether q has at least ten samples beyond it.
func (t timing) supports(q float64) bool { return float64(t.n)*(1-q) >= 10 }

func medianOf(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quartileSpread is the distance between the first and third quartile as a
// share of the median, the way statistics.quantiles(v, n=4) cuts them
// (exclusive method). With fewer than four values it falls back to
// (max-min)/median.
func quartileSpread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	med := medianOf(s)
	if med == 0 {
		return 0
	}
	if len(s) < 4 {
		return (s[len(s)-1] - s[0]) / math.Abs(med)
	}
	cut := func(k int) float64 {
		pos := float64(k) * float64(len(s)+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return (cut(3) - cut(1)) / math.Abs(med)
}
