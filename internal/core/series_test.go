package core

import (
	"testing"

	"phasemon/internal/phase"
)

func TestAccuracySeriesShowsGPHTWarmup(t *testing.T) {
	tab := phase.Default()
	pat := []phase.ID{5, 2, 6, 2, 2, 5, 6, 6, 2, 5}
	obs := obsFromPhases(tab, repeatPattern(pat, 1000))
	g := MustNewGPHT(DefaultGPHTConfig())
	series, err := AccuracySeries(g, obs, 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) < 10 {
		t.Fatalf("series has %d windows", len(series))
	}
	first, last := series[0], series[len(series)-1]
	if !(last > first+0.2) {
		t.Errorf("no visible warm-up: first window %v, last %v", first, last)
	}
	if last < 0.95 {
		t.Errorf("steady-state accuracy %v on a pure pattern", last)
	}
	if warm := warmupWindows(series, 0.95); warm < 1 || warm > 5 {
		t.Errorf("warm-up of %d windows, expected a short but visible ramp", warm)
	}
	// Last value has no warm-up: its first window is already at its
	// steady accuracy.
	lvSeries, err := AccuracySeries(NewLastValue(), obs, 50)
	if err != nil {
		t.Fatal(err)
	}
	if lvWarm := warmupWindows(lvSeries, 0.9); lvWarm > 1 {
		t.Errorf("last value warmed up for %d windows", lvWarm)
	}
}

func TestAccuracySeriesValidation(t *testing.T) {
	tab := phase.Default()
	obs := obsFromPhases(tab, []phase.ID{1, 2, 3})
	if _, err := AccuracySeries(NewLastValue(), obs, 0); err == nil {
		t.Error("zero window accepted")
	}
	if _, err := AccuracySeries(NewLastValue(), obs, 10); err == nil {
		t.Error("window larger than stream accepted")
	}
}

// warmupWindows counts the leading windows of an accuracy series that
// fall below fraction of its final window's accuracy.
func warmupWindows(series []float64, fraction float64) int {
	target := series[len(series)-1] * fraction
	for i, a := range series {
		if a >= target {
			return i
		}
	}
	return len(series)
}
