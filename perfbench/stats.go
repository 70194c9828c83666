package main

import (
	"math"
	"sort"
)

// median returns the middle of xs (the mean of the two middle values for an
// even count), or NaN for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailLadder lists the percentiles a tail is reported at. Rungs are a decade
// apart in "share beyond", so a workload sized for one rung stays on it when
// its session count drifts by less than a factor of ten.
var tailLadder = []float64{50, 90, 99, 99.9}

// minBeyond is how many samples must lie beyond a percentile for it to be
// reported.
const minBeyond = 10

// tail is a tail-latency summary: the value at percentile P, with N samples
// in all and Beyond of them above it.
type tail struct {
	P      float64
	Value  float64
	N      int
	Beyond int
}

// tailOf returns the highest percentile of tailLadder with at least
// minBeyond samples beyond it, by the nearest-rank definition (the value at
// percentile p is the ceil(p·n/100)-th smallest sample). ok is false when
// even the median has fewer than minBeyond samples beyond it.
func tailOf(xs []float64) (t tail, ok bool) {
	s := sortedCopy(xs)
	n := len(s)
	for i := len(tailLadder) - 1; i >= 0; i-- {
		p := tailLadder[i]
		rank := int(math.Ceil(p * float64(n) / 100))
		if rank < 1 || n-rank < minBeyond {
			continue
		}
		return tail{P: p, Value: s[rank-1], N: n, Beyond: n - rank}, true
	}
	return tail{N: n}, false
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// interval is a half-open time range [lo, hi) in nanoseconds.
type interval struct{ lo, hi int64 }

// unionLen returns the length of the union of ivs clipped to [lo, hi):
// overlapping children (concurrent stages of one session) count once.
func unionLen(ivs []interval, lo, hi int64) int64 {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv.lo, lo), min(iv.hi, hi)
		if a < b {
			clipped = append(clipped, interval{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].lo < clipped[j].lo })
	var total int64
	var cur interval
	open := false
	for _, iv := range clipped {
		switch {
		case !open:
			cur, open = iv, true
		case iv.lo <= cur.hi:
			cur.hi = max(cur.hi, iv.hi)
		default:
			total += cur.hi - cur.lo
			cur = iv
		}
	}
	if open {
		total += cur.hi - cur.lo
	}
	return total
}
