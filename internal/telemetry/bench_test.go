package telemetry

import (
	"testing"
)

// The instrument benchmarks document the per-operation budget: the
// target is <50 ns/op for counter and histogram updates (not
// enforced — compare the -bench output against it).

func BenchmarkCounterInc(b *testing.B) {
	var c Counter
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
	if c.Value() == 0 {
		b.Fatal("counter not incremented")
	}
}

func BenchmarkCounterIncNil(b *testing.B) {
	var c *Counter
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkGaugeSet(b *testing.B) {
	var g Gauge
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Set(float64(i))
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := mustNewHistogram(DefaultMemPerUopBounds)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i%40) / 1000)
	}
	if h.Snapshot().Count == 0 {
		b.Fatal("histogram not fed")
	}
}

func BenchmarkJournalRecord(b *testing.B) {
	j := NewJournal(DefaultJournalCapacity)
	e := Event{Kind: KindPMISample, MemPerUop: 0.012, UPC: 0.8}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Step = i
		j.Record(e)
	}
}

func BenchmarkHubRecordPrediction(b *testing.B) {
	h := NewHub(6)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.RecordPrediction(i, i%6+1, (i/2)%6+1)
	}
}

func BenchmarkRegistrySnapshot(b *testing.B) {
	h := NewHub(6)
	for i := 0; i < 1000; i++ {
		h.Steps.Inc()
		h.MemPerUop.Observe(0.01)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := h.Registry.Snapshot()
		if len(s.Counters) == 0 {
			b.Fatal("empty snapshot")
		}
	}
}

func BenchmarkWritePrometheus(b *testing.B) {
	h := NewHub(6)
	h.Steps.Add(123)
	h.MemPerUop.Observe(0.01)
	s := h.Registry.Snapshot()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := WritePrometheus(discard{}, s); err != nil {
			b.Fatal(err)
		}
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }
