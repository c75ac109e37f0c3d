package daq

// Calibration models the systematic errors of the measurement chain —
// the reason the paper's absolute watts carry an instrument tolerance
// even when the methodology is sound. Gain error scales the
// conditioned voltage drops (and hence the computed currents);
// offset adds a constant bias to each drop.
type Calibration struct {
	// GainError is the fractional gain error of the conditioning
	// unit's differential channels (e.g. 0.005 = +0.5%).
	GainError float64
	// OffsetV is an additive bias on each conditioned voltage drop.
	OffsetV float64
}

// Apply transforms an ideal sample through the calibration errors,
// returning what the logging machine would actually record.
func (c Calibration) Apply(s Sample) Sample {
	// Reconstruct the drops the conditioning unit saw, perturb them,
	// and recompute the currents with the nominal resistance.
	const r = 0.002
	d1 := s.I1*r*(1+c.GainError) + c.OffsetV
	d2 := s.I2*r*(1+c.GainError) + c.OffsetV
	s.I1 = d1 / r
	s.I2 = d2 / r
	return s
}

// ApplyAll maps Apply over a sample stream.
func (c Calibration) ApplyAll(samples []Sample) []Sample {
	out := make([]Sample, len(samples))
	for i, s := range samples {
		out[i] = c.Apply(s)
	}
	return out
}
