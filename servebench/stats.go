package main

import (
	"math"
	"sort"
	"time"

	"logicblox/internal/obs"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between closest ranks; 0 for an empty sample. xs is not
// modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, or 0 when b is 0 (a layer the workload never reaches).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// histDelta is the distribution a histogram recorded between two
// registry snapshots: bucket counts subtracted, quantiles estimated by
// obs's own bucket interpolation.
func histDelta(before, after obs.HistogramSnapshot) obs.HistogramSnapshot {
	d := obs.HistogramSnapshot{
		Count:   after.Count - before.Count,
		Sum:     after.Sum - before.Sum,
		Max:     after.Max,
		Buckets: map[int64]int64{},
	}
	for b, n := range after.Buckets {
		if m := n - before.Buckets[b]; m > 0 {
			d.Buckets[b] = m
		}
	}
	return d
}
