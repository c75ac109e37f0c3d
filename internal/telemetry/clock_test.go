package telemetry

import (
	"math/rand"
	"testing"
	"time"
)

// TestHubClockDefaults pins the fallback contract: Now and Clock read
// the wall clock, on a nil hub too.
func TestHubClockDefaults(t *testing.T) {
	var nilHub *Hub
	before := time.Now()
	if got := nilHub.Now(); got.Before(before) {
		t.Errorf("nil hub Now() = %v, before %v", got, before)
	}
	if nilHub.Clock() == nil {
		t.Error("nil hub Clock() = nil, want wall clock")
	}
	h := NewHub(6)
	if got := h.Now(); got.Before(before) {
		t.Errorf("default hub Now() = %v, before %v", got, before)
	}
	if got := h.Clock()(); got.Before(before) {
		t.Errorf("default hub Clock()() = %v, before %v", got, before)
	}
}

// mustNewHistogram is NewHistogram for known-good test bounds.
func mustNewHistogram(bounds []float64) *Histogram {
	h, err := NewHistogram(bounds)
	if err != nil {
		panic(err)
	}
	return h
}

// TestHistogramMergeEqualsCombined is the rollup pipeline's merge
// property: snapshotting N shard histograms and merging them must
// equal snapshotting one histogram that observed every shard's
// samples. Exercised over random shard counts and sample sets.
func TestHistogramMergeEqualsCombined(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		shards := 1 + rng.Intn(8)
		combined := mustNewHistogram(DefaultFrameBounds)
		parts := make([]*Histogram, shards)
		for i := range parts {
			parts[i] = mustNewHistogram(DefaultFrameBounds)
		}
		for n := 0; n < 500; n++ {
			v := rng.Float64() * 0.2 // spans all buckets incl. +Inf
			s := rng.Intn(shards)
			parts[s].Observe(v)
			combined.Observe(v)
		}

		merged := parts[0].Snapshot()
		for _, p := range parts[1:] {
			if err := merged.Merge(p.Snapshot()); err != nil {
				t.Fatal(err)
			}
		}
		want := combined.Snapshot()
		if merged.Count != want.Count {
			t.Fatalf("trial %d: merged count %d, combined %d", trial, merged.Count, want.Count)
		}
		for i := range want.Counts {
			if merged.Counts[i] != want.Counts[i] {
				t.Errorf("trial %d bucket %d: merged %d, combined %d", trial, i, merged.Counts[i], want.Counts[i])
			}
		}
		// Sums are float adds in different orders; allow rounding slack.
		if diff := merged.Sum - want.Sum; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("trial %d: merged sum %v, combined %v", trial, merged.Sum, want.Sum)
		}
	}
}

// TestHistogramMergeRejectsMismatchedBounds pins the error contract:
// merging histograms with different bucketing fails and leaves the
// receiver unchanged.
func TestHistogramMergeRejectsMismatchedBounds(t *testing.T) {
	a := mustNewHistogram([]float64{1, 2, 3})
	a.Observe(1.5)
	b := mustNewHistogram([]float64{1, 2, 4})
	b.Observe(1.5)
	c := mustNewHistogram([]float64{1, 2})
	c.Observe(1.5)

	snap := a.Snapshot()
	before := a.Snapshot()
	if err := snap.Merge(b.Snapshot()); err == nil {
		t.Error("merging different bounds: err = nil, want error")
	}
	if err := snap.Merge(c.Snapshot()); err == nil {
		t.Error("merging different bucket counts: err = nil, want error")
	}
	if snap.Count != before.Count || snap.Sum != before.Sum {
		t.Errorf("failed merge mutated receiver: %+v, want %+v", snap, before)
	}
}

// TestSnapshotMultiPrefix proves the multi-family export filter: a
// registry carrying three families exports exactly the requested two.
func TestSnapshotMultiPrefix(t *testing.T) {
	r := NewRegistry()
	r.Counter("phasemon_phased_frames_in_total").Inc()
	r.Counter("phasemon_agg_ingested_total").Inc()
	r.Counter("phasemon_monitor_steps_total").Inc()

	s := r.SnapshotPrefix(PhasedPrefix, AggPrefix)
	if len(s.Counters) != 2 {
		t.Fatalf("got %d counters, want 2: %v", len(s.Counters), s.Counters)
	}
	if _, ok := s.Counters["phasemon_phased_frames_in_total"]; !ok {
		t.Error("phased counter missing from multi-prefix snapshot")
	}
	if _, ok := s.Counters["phasemon_agg_ingested_total"]; !ok {
		t.Error("agg counter missing from multi-prefix snapshot")
	}
	if all := r.SnapshotPrefix(); len(all.Counters) != 3 {
		t.Errorf("no-prefix snapshot has %d counters, want 3", len(all.Counters))
	}
}
