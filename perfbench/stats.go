package main

import (
	"math"
	"sort"
	"time"
)

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median of xs (0 for an empty sample).
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

// tailBeyond is how many samples must lie beyond the reported tail.
const tailBeyond = 10

// tail returns the highest percentile that still has tailBeyond samples
// beyond it: the (tailBeyond+1)-th largest sample, and its percentile
// 100*(n-tailBeyond)/n. A sample too small to support any such
// percentile reports its maximum at the 100th percentile.
func tail(xs []float64) (value, pct float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	s := sortedCopy(xs)
	if n <= tailBeyond {
		return s[n-1], 100
	}
	return s[n-tailBeyond-1], 100 * float64(n-tailBeyond) / float64(n)
}

// geomean is the geometric mean of positive values (0 if any is not
// positive or the sample is empty).
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// groupMedians returns the median of each group's samples, in key order.
func groupMedians(groups map[string][]float64) []float64 {
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]float64, 0, len(keys))
	for _, k := range keys {
		out = append(out, median(groups[k]))
	}
	return out
}

// dueLatency is an open-loop request's latency: from when it was due
// to be sent, not from when a sender got to it, so a stall that delays
// later sends counts against every request it delays.
func dueLatency(due, done time.Time) time.Duration { return done.Sub(due) }

// dueTimes spaces n requests at a fixed rate from start.
func dueTimes(start time.Time, n int, rate float64) []time.Time {
	out := make([]time.Time, n)
	for i := range out {
		out[i] = start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
	}
	return out
}

// residual is the share of the untraced total that the traced layer sum
// does not account for: (untraced - traced) / untraced.
func residual(untraced, tracedSum float64) float64 {
	if untraced == 0 {
		return 0
	}
	return (untraced - tracedSum) / untraced
}

// overhead is the tracing overhead: traced / untraced - 1.
func overhead(untraced, traced float64) float64 {
	if untraced == 0 {
		return 0
	}
	return traced/untraced - 1
}
