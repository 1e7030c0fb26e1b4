package main

import (
	"math"
	"sort"
)

// Summary is the spread record printed beside every sampled metric: its
// sample count, median and quartiles.
type Summary struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1,omitempty"`
	Q3     float64 `json:"q3,omitempty"`
}

// summarize returns the count, median and quartiles of xs (zero Summary
// for no samples).
func summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := sorted(xs)
	return Summary{N: len(s), Median: quantile(s, 0.5), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75)}
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile interpolates linearly between the closest ranks of the sorted
// sample s (the "type 7" estimator).
func quantile(s []float64, p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	h := p * float64(len(s)-1)
	lo := int(math.Floor(h))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (h-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(sorted(xs), 0.5) }

// minTailBeyond is how many samples must lie beyond a reported tail
// percentile for it to mean anything.
const minTailBeyond = 10

// tailOK reports whether n samples leave at least minTailBeyond of them
// beyond the p-th quantile.
func tailOK(n int, p float64) bool {
	return float64(n)*(1-p) >= minTailBeyond-1e-9
}

// samplesForTail is the smallest sample count for which the p-th quantile
// has minTailBeyond samples beyond it.
func samplesForTail(p float64) int {
	return int(math.Ceil(minTailBeyond/(1-p) - 1e-9))
}

// percentile returns the p-th quantile of xs and whether it honours the
// samples-beyond rule; a caller must not report a tail that fails it.
func percentile(xs []float64, p float64) (float64, bool) {
	return quantile(sorted(xs), p), tailOK(len(xs), p)
}

// geomean returns the geometric mean of positive xs.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}
