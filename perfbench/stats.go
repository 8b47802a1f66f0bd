package main

import (
	"math"
	"sort"
	"time"
)

// tail describes the highest percentile a sample supports: the choosing
// rule is "the highest percentile with at least ten samples beyond it",
// capped at p99.
type tail struct {
	Pct float64 // percentile reported, e.g. 99 or 96.7
	N   int     // sample count
}

// tailPct returns the highest percentile (<= 99) that leaves at least ten
// of n samples beyond it; 0 when n < 11 and no tail is supported.
func tailPct(n int) float64 {
	if n <= 10 {
		return 0
	}
	p := 100 * (1 - 10/float64(n))
	return math.Min(99, math.Floor(p*10)/10)
}

// percentile returns the p-th percentile (0..100) of xs by nearest rank.
// xs must be sorted ascending.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(xs))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(xs) {
		rank = len(xs)
	}
	return xs[rank-1]
}

// summary is the median and tail of one latency sample, in ms.
type summary struct {
	P50, Tail float64
	tail
}

func summarize(ms []float64) summary {
	xs := append([]float64(nil), ms...)
	sort.Float64s(xs)
	// Below 20 samples no percentile above the median has ten beyond
	// it; the tail is then the median.
	t := tail{Pct: math.Max(50, tailPct(len(xs))), N: len(xs)}
	return summary{P50: percentile(xs, 50), Tail: percentile(xs, t.Pct), tail: t}
}

func median(xs []float64) float64 { return summarize(xs).P50 }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// point is one measured value and the time it belongs to.
type point struct {
	at time.Time
	v  float64
}

func values(pts []point) []float64 {
	out := make([]float64, len(pts))
	for i, p := range pts {
		out[i] = p.v
	}
	return out
}

// sliceMedian splits [start, start+span) into k equal time slices, takes
// the median of the points in each non-empty slice and returns the
// median of those: a burst of lost CPU that slows one slice of a run
// moves it less than it moves the median of the whole run.
func sliceMedian(pts []point, start time.Time, span time.Duration, k int) float64 {
	buckets := make([][]float64, k)
	for _, p := range pts {
		i := int(int64(p.at.Sub(start)) * int64(k) / int64(span))
		i = min(max(i, 0), k-1)
		buckets[i] = append(buckets[i], p.v)
	}
	var meds []float64
	for _, b := range buckets {
		if len(b) > 0 {
			meds = append(meds, median(b))
		}
	}
	return median(meds)
}

func okCount(ss []sample) int {
	n := 0
	for _, s := range ss {
		if s.Err == nil {
			n++
		}
	}
	return n
}

func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return ratio(sum, float64(len(xs)))
}
