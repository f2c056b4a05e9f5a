package main

import (
	"math"
	"sort"
	"time"
)

// nearestRank returns the p-th percentile (0 < p ≤ 100) of vals by the
// nearest-rank rule: the smallest value with at least p % of the sample
// at or below it. A failed frame enters as +Inf, so it misses every
// latency limit and sorts past every served frame. vals is sorted in
// place; an empty sample yields NaN.
func nearestRank(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	sort.Float64s(vals)
	rank := int(math.Ceil(p / 100 * float64(len(vals))))
	if rank < 1 {
		rank = 1
	}
	return vals[rank-1]
}

// within counts the values at or below limit (+Inf never is).
func within(vals []float64, limit float64) int {
	n := 0
	for _, v := range vals {
		if v <= limit {
			n++
		}
	}
	return n
}

// finite returns the values that are not +Inf: the latencies of frames
// answered StatusOK.
func finite(vals []float64) []float64 {
	out := make([]float64, 0, len(vals))
	for _, v := range vals {
		if !math.IsInf(v, 1) {
			out = append(out, v)
		}
	}
	return out
}

func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, v := range vals {
		s += v
	}
	return s / float64(len(vals))
}

func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Windowed statistics. Each timed phase is cut into equal windows and
// a metric is the median of its per-window values, so a burst of
// interference from other tenants of the host moves one window, not the
// run's figure.

// windowRate is the median over n equal windows of [0, dur) of the
// events per second whose time (ns since the phase epoch) falls inside.
func windowRate(at []int64, dur time.Duration, n int) float64 {
	win := int64(dur) / int64(n)
	counts := make([]float64, n)
	for _, t := range at {
		if w := t / win; t >= 0 && w < int64(n) {
			counts[w]++
		}
	}
	for i := range counts {
		counts[i] /= time.Duration(win).Seconds()
	}
	return median(counts)
}

// windowPercentile is the median over n equal windows of [0, dur) of
// the p-th nearest-rank percentile of the finite latencies whose frames
// fell due inside the window; windows without a served frame are
// skipped.
func windowPercentile(lat []float64, due []int64, dur time.Duration, n int, p float64) float64 {
	win := int64(dur) / int64(n)
	per := make([][]float64, n)
	for i, l := range lat {
		if w := due[i] / win; !math.IsInf(l, 1) && w < int64(n) {
			per[w] = append(per[w], l)
		}
	}
	var vals []float64
	for _, v := range per {
		if len(v) > 0 {
			vals = append(vals, nearestRank(v, p))
		}
	}
	return median(vals)
}

// Derived server split. Neither is measured directly: the server's
// latency histogram runs from admission (after the wire read and
// decode) to the buffered response, so
//
//	outside = client mean (due → response) − server mean
//
// is the wire, ingest and client time the server cannot see, and
//
//	queue wait = server mean − replayed per-frame detection time
//
// is the admission-queue wait, derived by subtracting the offline
// replay of the same frames.
func outsideServerUs(clientMeanUs, serverMeanUs float64) float64 {
	return clientMeanUs - serverMeanUs
}

func queueWaitUs(serverMeanUs, frameUs float64) float64 {
	return serverMeanUs - frameUs
}
