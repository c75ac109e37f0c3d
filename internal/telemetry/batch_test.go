package telemetry

import (
	"math"
	"testing"
)

// TestObserveNMatchesObserve: ObserveN(v, n) leaves the same bucket
// counts and sum as n calls to Observe(v), on every bucket including
// the bound itself (le semantics) and +Inf; NaN and n = 0 record
// nothing.
func TestObserveNMatchesObserve(t *testing.T) {
	bounds := []float64{1, 2, 4}
	for _, v := range []float64{0.5, 1, 1.5, 2, 3.25, 4, 9, -1} {
		for _, n := range []uint64{1, 3, 64} {
			one, _ := NewHistogram(bounds)
			many, _ := NewHistogram(bounds)
			one.ObserveN(v, n)
			for i := uint64(0); i < n; i++ {
				many.Observe(v)
			}
			a, b := one.Snapshot(), many.Snapshot()
			for i := range a.Counts {
				if a.Counts[i] != b.Counts[i] {
					t.Errorf("ObserveN(%v, %d) bucket %d = %d, want %d", v, n, i, a.Counts[i], b.Counts[i])
				}
			}
			if a.Count != n || math.Abs(a.Sum-b.Sum) > 1e-12*math.Abs(b.Sum) {
				t.Errorf("ObserveN(%v, %d): count %d sum %v, want %d and %v", v, n, a.Count, a.Sum, n, b.Sum)
			}
		}
	}
	h, _ := NewHistogram(bounds)
	h.ObserveN(math.NaN(), 5)
	h.ObserveN(1, 0)
	if s := h.Snapshot(); s.Count != 0 || s.Sum != 0 {
		t.Errorf("NaN / zero-count ObserveN recorded count %d sum %v", s.Count, s.Sum)
	}
	var nilHist *Histogram
	nilHist.ObserveN(1, 1)
}

// TestWithoutJournal: the journal-less view is nil on a nil hub,
// shares every instrument and the confusion cells with its hub, and
// records no events anywhere.
func TestWithoutJournal(t *testing.T) {
	var nilHub *Hub
	if v := nilHub.WithoutJournal(); v != nil {
		t.Fatalf("nil hub's view = %p, want nil", v)
	}

	h := NewHub(6)
	v := h.WithoutJournal()
	if v.Journal != nil {
		t.Fatal("view has a journal")
	}
	if h.Journal == nil {
		t.Fatal("WithoutJournal removed the hub's own journal")
	}
	if v.Registry != h.Registry || v.Steps != h.Steps || v.GPHTHits != h.GPHTHits ||
		v.MemPerUop != h.MemPerUop || v.PhasedFrameSeconds != h.PhasedFrameSeconds {
		t.Error("view does not share the hub's instruments")
	}

	v.Steps.Inc()
	v.RecordPrediction(1, 2, 2)
	v.RecordPrediction(2, 3, 2)
	v.RecordPhaseTransition(2, 1, 2)
	v.RecordDVFSChange(2, 0, 3)
	v.RecordPMISample(2, 0.01, 1.2)
	if got := h.Steps.Value(); got != 1 {
		t.Errorf("hub steps = %d, want 1", got)
	}
	if got := h.Mispredictions.Value(); got != 1 {
		t.Errorf("hub mispredictions = %d, want 1", got)
	}
	if got := h.PhaseTransitions.Value(); got != 1 {
		t.Errorf("hub phase transitions = %d, want 1", got)
	}
	if got := h.DVFSTransitions.Value(); got != 1 || h.PMISamples.Value() != 1 {
		t.Errorf("hub dvfs transitions = %d, pmi samples = %d, want 1 and 1", got, h.PMISamples.Value())
	}
	if acc := h.Accuracy(); acc.Total != 2 || acc.Correct != 1 {
		t.Errorf("hub accuracy %d/%d, want 1/2 through the shared confusion cells", acc.Correct, acc.Total)
	}
	if n := h.Journal.Seq(); n != 0 {
		t.Errorf("hub journal recorded %d events from the view, want 0", n)
	}

	h.RecordPrediction(3, 2, 2)
	if n := h.Journal.Len(); n != 1 {
		t.Errorf("hub journal holds %d events after a direct record, want 1", n)
	}
}
