package main

import (
	"reflect"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{
		{0.1, 1}, {0.5, 5}, {0.9, 9}, {0.95, 10}, {0.99, 10}, {1, 10}, {0, 1},
	} {
		if got := percentile(v, c.p); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

func TestMedianLeavesInputAlone(t *testing.T) {
	odd := []float64{3, 1, 2}
	if got := median(odd); got != 2 {
		t.Errorf("median(3,1,2) = %v, want 2", got)
	}
	if !reflect.DeepEqual(odd, []float64{3, 1, 2}) {
		t.Errorf("median reordered its input: %v", odd)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median(4,1,3,2) = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of nothing = %v, want 0", got)
	}
}

func TestHistQuantileInterpolates(t *testing.T) {
	bounds := []float64{1, 2, 4}
	counts := []uint64{0, 10, 10, 0}
	for _, c := range []struct{ q, want float64 }{
		{0.25, 1.5}, {0.5, 2}, {0.75, 3}, {1, 4},
	} {
		if got := histQuantile(bounds, counts, c.q); got != c.want {
			t.Errorf("histQuantile(q=%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := histQuantile(bounds, []uint64{0, 0, 0, 5}, 0.5); got != 4 {
		t.Errorf("quantile in the +Inf bucket = %v, want the last bound 4", got)
	}
	if got := histQuantile(bounds, make([]uint64, 4), 0.5); got != 0 {
		t.Errorf("empty histogram quantile = %v, want 0", got)
	}
}

func TestReservoirBoundedAndDeterministic(t *testing.T) {
	small := newReservoir(4, 1)
	for _, v := range []float64{7, 8, 9} {
		small.add(v)
	}
	if !reflect.DeepEqual(small.buf, []float64{7, 8, 9}) {
		t.Fatalf("under capacity the reservoir must keep everything, got %v", small.buf)
	}

	a, b := newReservoir(64, 9), newReservoir(64, 9)
	for i := 0; i < 100_000; i++ {
		a.add(float64(i))
		b.add(float64(i))
	}
	if len(a.buf) != 64 || a.seen != 100_000 {
		t.Fatalf("kept %d of %d, want 64 of 100000", len(a.buf), a.seen)
	}
	if !reflect.DeepEqual(a.buf, b.buf) {
		t.Fatal("same seed and stream kept different samples")
	}
	// A uniform sample of 0..99999 should not be stuck at the start.
	late := 0
	for _, v := range a.buf {
		if v >= 50_000 {
			late++
		}
	}
	if late < 16 || late > 48 {
		t.Errorf("%d of 64 kept values from the second half; want a roughly uniform sample", late)
	}
}
