package fleet

import (
	"fmt"
	"hash/fnv"
	"time"

	"phasemon/internal/governor"
)

// Spec describes one governed run: which workload to generate, which
// policy to manage it with, and the run geometry. Specs are plain
// comparable data — a sweep is a []Spec, and the engine owns turning
// each into a generator, predictor, and machine.
type Spec struct {
	// Workload names a profile from the workload registry
	// ("applu_in", "gzip_graphic", ...). Required.
	Workload string
	// Policy is a governor.PolicyFromSpec string: "baseline",
	// "reactive", a predictor spec like "gpht_8_128", a monitoring-only
	// "mon:<spec>", or "oracle" (the engine precomputes the future).
	Policy string
	// Phases optionally overrides the classifier with comma-separated
	// Mem/Uop boundaries (phase.ParseTable grammar). Empty selects the
	// paper's Table 1.
	Phases string
	// Intervals bounds the run length; 0 runs the profile to
	// completion.
	Intervals int
	// Seed seeds the workload generator. 0 derives a per-workload seed
	// from the engine's BaseSeed, so identical workloads see identical
	// streams under every policy — the property like-for-like policy
	// comparisons rest on.
	Seed int64
	// Bound, when positive, replaces the identity translation with a
	// conservative one derived to keep worst-case slowdown under this
	// fraction (Section 6.3's 5% bound is 0.05).
	Bound float64
	// GranularityUops is the sampling interval; 0 selects the paper's
	// 100M uops.
	GranularityUops uint64
}

// Key renders the spec into its canonical cache-key form. Two specs
// with equal keys describe byte-identical runs.
func (s Spec) Key() string {
	return fmt.Sprintf("w=%s|p=%s|ph=%s|i=%d|s=%d|b=%g|g=%d",
		s.Workload, s.Policy, s.Phases, s.Intervals, s.Seed, s.Bound, s.GranularityUops)
}

// EffectiveSeed resolves the seed a run will actually use: the spec's
// own seed when set, otherwise a stable mix of base and the workload
// name. Mixing over the workload alone (never the policy) keeps every
// policy on the same input stream, and the value is independent of
// worker count, submission order, and scheduling.
func (s Spec) EffectiveSeed(base int64) int64 {
	if s.Seed != 0 {
		return s.Seed
	}
	if base == 0 {
		base = 1
	}
	h := fnv.New64a()
	h.Write([]byte(s.Workload))
	mixed := int64(h.Sum64()&0x7fffffffffffffff) ^ base
	if mixed == 0 {
		mixed = 1
	}
	return mixed
}

// Status classifies how a fleet run concluded.
type Status uint8

const (
	// StatusOK is a freshly executed, successful run.
	StatusOK Status = iota + 1
	// StatusCached is a successful result served from the engine's
	// cache (or joined from a concurrent identical run).
	StatusCached
	// StatusFailed is a run that returned an error.
	StatusFailed
	// StatusCanceled is a run abandoned because the sweep's context was
	// canceled or its per-run timeout expired.
	StatusCanceled
)

// String labels the status for reports.
func (s Status) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusCached:
		return "cached"
	case StatusFailed:
		return "failed"
	case StatusCanceled:
		return "canceled"
	default:
		return fmt.Sprintf("status(%d)", uint8(s))
	}
}

// Result is one spec's outcome. Res is shared with the engine's cache
// when Status is StatusCached; treat it as read-only.
type Result struct {
	// Index is the spec's position in the submitted slice.
	Index int
	// Spec is the resolved spec (defaults and derived seed filled in).
	Spec Spec
	// Status classifies the outcome.
	Status Status
	// Res is the governed run's result when the run succeeded.
	Res *governor.Result
	// Err is set when Status is StatusFailed or StatusCanceled.
	Err error
	// Elapsed is the run's wall time; zero for cache hits.
	Elapsed time.Duration
}

// OK reports whether the result carries a usable governor.Result.
func (r Result) OK() bool {
	switch r.Status {
	case StatusOK, StatusCached:
		return true
	case StatusFailed, StatusCanceled:
		return false
	default:
		return false
	}
}

// FirstError returns the lowest-index failure in a result set, or nil
// when every run succeeded. Deterministic regardless of the slice's
// order.
func FirstError(results []Result) error {
	var first *Result
	for i := range results {
		r := &results[i]
		if r.OK() || r.Err == nil {
			continue
		}
		if first == nil || r.Index < first.Index {
			first = r
		}
	}
	if first == nil {
		return nil
	}
	return fmt.Errorf("fleet: spec %d (%s under %s): %w",
		first.Index, first.Spec.Workload, first.Spec.Policy, first.Err)
}
