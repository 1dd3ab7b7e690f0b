package main

import (
	"math"
	"runtime/metrics"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count); 0 for no samples. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// minBeyond is how many samples must lie above a tail percentile before
// it is reported: below that, the "percentile" is one or two outliers.
const minBeyond = 10

// tailPercentile returns the nearest-rank p-quantile (0 < p < 1) of xs
// and whether at least minBeyond samples lie beyond its rank.
func tailPercentile(xs []float64, p float64) (float64, bool) {
	n := len(xs)
	rank := int(math.Ceil(p * float64(n)))
	if n == 0 || n-rank < minBeyond {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], true
}

// allocSample reads the process's cumulative heap allocation in bytes.
// Deltas between two reads are attributable to the code that ran in
// between because the benchmark runs on a single P.
var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

func allocBytes() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// bytesToMB converts a byte count to decimal megabytes.
func bytesToMB(b uint64) float64 { return float64(b) / 1e6 }

// layerStat is one per-layer metric summed over apps.
type layerStat struct {
	Value, Min, Max float64
}

// sumOfMedians reduces per-app samples to one figure per metric: the
// median of each app's repetitions, summed over apps. Min and Max are
// the same sums over each app's fastest and slowest repetition.
func sumOfMedians(samples map[string]map[string][]float64) map[string]layerStat {
	out := make(map[string]layerStat, len(samples))
	for name, byApp := range samples {
		var st layerStat
		for _, xs := range byApp {
			if len(xs) == 0 {
				continue
			}
			lo, hi := xs[0], xs[0]
			for _, x := range xs {
				lo = math.Min(lo, x)
				hi = math.Max(hi, x)
			}
			st.Value += median(xs)
			st.Min += lo
			st.Max += hi
		}
		out[name] = st
	}
	return out
}
