package daq

import (
	"math"
	"testing"

	"phasemon/internal/machine"
)

func idealSamples(t *testing.T, watts, volts, durS float64) []Sample {
	t.Helper()
	w := NewWaveform()
	w.Record(machine.Span{T0: 0, Dur: durS, Watts: watts, Volts: volts, Port: machine.PortBitApp})
	cfg := DefaultConfig()
	cfg.NoiseV = 0
	samples, err := Acquire(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return samples
}

func TestCalibrationIdentity(t *testing.T) {
	samples := idealSamples(t, 10, 1.4, 0.01)
	out := Calibration{}.ApplyAll(samples)
	for i := range samples {
		if math.Abs(out[i].PowerW()-samples[i].PowerW()) > 1e-9 {
			t.Fatalf("identity calibration changed sample %d", i)
		}
	}
}

func TestGainErrorScalesPower(t *testing.T) {
	samples := idealSamples(t, 10, 1.4, 0.01)
	const gain = 0.01
	out := Calibration{GainError: gain}.ApplyAll(samples)
	for i := range out {
		want := samples[i].PowerW() * (1 + gain)
		if math.Abs(out[i].PowerW()-want)/want > 1e-9 {
			t.Fatalf("sample %d: power %v, want %v", i, out[i].PowerW(), want)
		}
	}
}

func TestOffsetBiasesPower(t *testing.T) {
	samples := idealSamples(t, 10, 1.4, 0.01)
	const offset = 100e-6 // 0.1 mV on a ~7 mV drop
	out := Calibration{OffsetV: offset}.ApplyAll(samples)
	// Bias per branch: offset/R amps; power bias = V * 2*offset/R.
	wantBias := 1.4 * 2 * offset / 0.002
	for i := range out {
		got := out[i].PowerW() - samples[i].PowerW()
		if math.Abs(got-wantBias)/wantBias > 1e-9 {
			t.Fatalf("sample %d: bias %v, want %v", i, got, wantBias)
		}
	}
}
