package main

import (
	"math"
	"testing"
)

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		in := append([]float64(nil), tc.in...)
		if got := median(in); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.in, got, tc.want)
		}
		for i := range in {
			if in[i] != tc.in[i] {
				t.Fatalf("median reordered its input: %v", in)
			}
		}
	}
}

// ramp returns 1..n in reverse order.
func ramp(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i)
	}
	return xs
}

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	// 199 samples leave 9 beyond the 95th percentile's rank (189): omit.
	if v, ok := tailPercentile(ramp(199), 0.95); ok {
		t.Errorf("p95 of 199 samples reported (%v); needs %d beyond it", v, minBeyond)
	}
	// 200 samples: rank 190, exactly 10 beyond.
	if v, ok := tailPercentile(ramp(200), 0.95); !ok || v != 190 {
		t.Errorf("p95 of 1..200 = %v, %v; want 190, true", v, ok)
	}
	if v, ok := tailPercentile(ramp(1000), 0.95); !ok || v != 950 {
		t.Errorf("p95 of 1..1000 = %v, %v; want 950, true", v, ok)
	}
	if _, ok := tailPercentile(nil, 0.95); ok {
		t.Error("p95 of no samples reported")
	}
}

var sink []byte

func TestAllocDeltaCountsAllocations(t *testing.T) {
	const size = 8 << 20
	before := allocBytes()
	sink = make([]byte, size)
	delta := allocBytes() - before
	if delta < size || delta > size+1<<20 {
		t.Errorf("allocation of %d bytes measured as %d", size, delta)
	}
	if got := bytesToMB(size); math.Abs(got-8.388608) > 1e-9 {
		t.Errorf("bytesToMB(8 MiB) = %v", got)
	}
}

func TestSumOfMediansAddsPerAppMedians(t *testing.T) {
	got := sumOfMedians(map[string]map[string][]float64{
		"escape.analyze_ms": {"Mms": {3, 1, 2}, "Aard": {10, 20}},
		"race.accesses":     {"Mms": {5, 5, 5}},
	})
	if want := (layerStat{Value: 2 + 15, Min: 1 + 10, Max: 3 + 20}); got["escape.analyze_ms"] != want {
		t.Errorf("escape.analyze_ms = %+v, want %+v", got["escape.analyze_ms"], want)
	}
	if want := (layerStat{5, 5, 5}); got["race.accesses"] != want {
		t.Errorf("race.accesses = %+v, want %+v", got["race.accesses"], want)
	}
}
