package fleet

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"phasemon/internal/telemetry"
)

// sweepSpecs is a mixed sweep: several workloads, managed and
// monitoring policies, one custom classifier, one bounded translation.
// All specs are distinct, so fresh-vs-cached status is deterministic.
func sweepSpecs() []Spec {
	return []Spec{
		{Workload: "applu_in", Policy: "baseline", Intervals: 60},
		{Workload: "applu_in", Policy: "gpht_8_128", Intervals: 60},
		{Workload: "applu_in", Policy: "reactive", Intervals: 60},
		{Workload: "gzip_graphic", Policy: "gpht_8_128", Intervals: 60},
		{Workload: "gzip_graphic", Policy: "mon:gpht_8_128", Intervals: 60},
		{Workload: "swim_in", Policy: "gpht_4_64", Intervals: 40},
		{Workload: "mcf_inp", Policy: "gpht_8_128", Intervals: 40, Bound: 0.05},
		{Workload: "equake_in", Policy: "varwindow_128_0.005", Intervals: 40},
		{Workload: "crafty_in", Policy: "oracle", Intervals: 40},
		// Five boundaries define six phases, matching the ladder so the
		// identity translation stays derivable.
		{Workload: "applu_in", Policy: "gpht_8_128", Phases: "0.004,0.008,0.012,0.02,0.03", Intervals: 40},
	}
}

// fingerprint reduces a result set to a canonical string: everything
// that must be bit-identical across worker counts.
func fingerprint(results []Result) string {
	var b strings.Builder
	for _, r := range results {
		fmt.Fprintf(&b, "%d %s %s", r.Index, r.Spec.Key(), r.Status)
		if r.Res != nil {
			fmt.Fprintf(&b, " pol=%s run=%v acc=%d/%d ov=%v bv=%d",
				r.Res.Policy, r.Res.Run,
				r.Res.Accuracy.Correct(), r.Res.Accuracy.Total(),
				r.Res.OverheadFraction, r.Res.BudgetViolations)
		}
		if r.Err != nil {
			fmt.Fprintf(&b, " err=%v", r.Err)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func TestDeterministicAcrossWorkerCounts(t *testing.T) {
	specs := sweepSpecs()
	var want string
	for _, workers := range []int{1, 4, 16} {
		e := New(Config{Workers: workers, BaseSeed: 42})
		results, err := e.RunAll(context.Background(), specs)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(results) != len(specs) {
			t.Fatalf("workers=%d: %d results for %d specs", workers, len(results), len(specs))
		}
		got := fingerprint(results)
		if want == "" {
			want = got
			continue
		}
		if got != want {
			t.Errorf("workers=%d produced different results than workers=1:\n--- want\n%s--- got\n%s", workers, want, got)
		}
	}
}

// TestWorkloadCacheDeterminism is the wcache invisibility contract:
// sweeping with the shared workload-trace cache on and off must
// produce bit-identical result fingerprints at every worker count.
func TestWorkloadCacheDeterminism(t *testing.T) {
	specs := sweepSpecs()
	var want string
	for _, disable := range []bool{false, true} {
		for _, workers := range []int{1, 4, 16} {
			e := New(Config{Workers: workers, BaseSeed: 42, DisableWorkloadCache: disable})
			results, err := e.RunAll(context.Background(), specs)
			if err != nil {
				t.Fatalf("cacheOff=%v workers=%d: %v", disable, workers, err)
			}
			got := fingerprint(results)
			if want == "" {
				want = got
				continue
			}
			if got != want {
				t.Errorf("cacheOff=%v workers=%d diverged from cached workers=1:\n--- want\n%s--- got\n%s",
					disable, workers, want, got)
			}
		}
	}
}

// TestWorkloadCacheShares: distinct specs over the same workload
// stream synthesize the trace once; the remainder are cache hits.
func TestWorkloadCacheShares(t *testing.T) {
	hub := telemetry.NewHub(6)
	e := New(Config{Workers: 2, Telemetry: hub})
	_, err := e.RunAll(context.Background(), []Spec{
		{Workload: "applu_in", Policy: "baseline", Intervals: 40},
		{Workload: "applu_in", Policy: "gpht_8_128", Intervals: 40},
		{Workload: "applu_in", Policy: "reactive", Intervals: 40},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := hub.WorkloadCacheMisses.Value(); got != 1 {
		t.Errorf("WorkloadCacheMisses = %d, want 1 (one distinct trace)", got)
	}
	if got := hub.WorkloadCacheHits.Value(); got != 2 {
		t.Errorf("WorkloadCacheHits = %d, want 2", got)
	}
}

func TestSharedWorkloadStreams(t *testing.T) {
	// Policies over the same workload must see the same input stream:
	// with derived seeds, the baseline and managed runs retire the same
	// instruction count.
	e := New(Config{Workers: 4, BaseSeed: 7})
	results, err := e.RunAll(context.Background(), []Spec{
		{Workload: "applu_in", Policy: "baseline", Intervals: 80},
		{Workload: "applu_in", Policy: "mon:gpht_8_128", Intervals: 80},
	})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Spec.Seed != results[1].Spec.Seed {
		t.Fatalf("same workload resolved different seeds: %d vs %d",
			results[0].Spec.Seed, results[1].Spec.Seed)
	}
	if results[0].Res.Run.Uops != results[1].Res.Run.Uops {
		t.Errorf("baseline and monitored runs diverged on input: %v vs %v uops",
			results[0].Res.Run.Uops, results[1].Res.Run.Uops)
	}
}

func TestEffectiveSeed(t *testing.T) {
	a := Spec{Workload: "applu_in"}
	if s := a.EffectiveSeed(0); s == 0 {
		t.Error("derived seed must be nonzero")
	}
	if a.EffectiveSeed(1) != a.EffectiveSeed(1) {
		t.Error("derived seed must be stable")
	}
	if a.EffectiveSeed(1) == a.EffectiveSeed(2) {
		t.Error("derived seed must depend on the base seed")
	}
	b := Spec{Workload: "swim_in"}
	if a.EffectiveSeed(1) == b.EffectiveSeed(1) {
		t.Error("derived seed must depend on the workload")
	}
	managed := Spec{Workload: "applu_in", Policy: "gpht_8_128"}
	if a.EffectiveSeed(1) != managed.EffectiveSeed(1) {
		t.Error("derived seed must not depend on the policy")
	}
	pinned := Spec{Workload: "applu_in", Seed: 99}
	if pinned.EffectiveSeed(1) != 99 {
		t.Error("explicit seed must win")
	}
}

func TestCacheHits(t *testing.T) {
	hub := telemetry.NewHub(6)
	e := New(Config{Workers: 2, Telemetry: hub})
	specs := []Spec{
		{Workload: "applu_in", Policy: "baseline", Intervals: 40},
		{Workload: "applu_in", Policy: "gpht_8_128", Intervals: 40},
	}
	first, err := e.RunAll(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	second, err := e.RunAll(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range second {
		if r.Status != StatusCached {
			t.Errorf("repeat spec %d: status %s, want cached", i, r.Status)
		}
		if r.Res != first[i].Res {
			t.Errorf("repeat spec %d did not reuse the cached result", i)
		}
	}
	if got := hub.FleetCacheHits.Value(); got != uint64(len(specs)) {
		t.Errorf("FleetCacheHits = %d, want %d", got, len(specs))
	}
	if got := hub.FleetStarted.Value(); got != uint64(len(specs)) {
		t.Errorf("FleetStarted = %d, want %d (cache hits must not re-run)", got, len(specs))
	}
}

func TestDuplicateSpecsRunOnce(t *testing.T) {
	hub := telemetry.NewHub(6)
	e := New(Config{Workers: 4, Telemetry: hub})
	sp := Spec{Workload: "applu_in", Policy: "gpht_8_128", Intervals: 40}
	results, err := e.RunAll(context.Background(), []Spec{sp, sp, sp, sp})
	if err != nil {
		t.Fatal(err)
	}
	fresh := 0
	for _, r := range results {
		switch r.Status {
		case StatusOK:
			fresh++
		case StatusCached:
		default:
			t.Errorf("spec %d: unexpected status %s (%v)", r.Index, r.Status, r.Err)
		}
	}
	if fresh != 1 {
		t.Errorf("%d fresh executions of identical specs, want exactly 1", fresh)
	}
	if got := hub.FleetStarted.Value(); got != 1 {
		t.Errorf("FleetStarted = %d, want 1", got)
	}
}

func TestDisableCache(t *testing.T) {
	hub := telemetry.NewHub(6)
	e := New(Config{Workers: 2, DisableCache: true, Telemetry: hub})
	sp := Spec{Workload: "applu_in", Policy: "baseline", Intervals: 40}
	results, err := e.RunAll(context.Background(), []Spec{sp, sp})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Status != StatusOK {
			t.Errorf("spec %d: status %s, want ok (cache disabled)", r.Index, r.Status)
		}
	}
	if got := hub.FleetStarted.Value(); got != 2 {
		t.Errorf("FleetStarted = %d, want 2", got)
	}
}

func TestRunFailuresPropagate(t *testing.T) {
	e := New(Config{Workers: 2})
	results, err := e.RunAll(context.Background(), []Spec{
		{Workload: "applu_in", Policy: "baseline", Intervals: 20},
		{Workload: "no_such_bench", Policy: "baseline", Intervals: 20},
		{Workload: "applu_in", Policy: "gpht_0", Intervals: 20},
	})
	if err == nil {
		t.Fatal("want error from failing specs")
	}
	if !strings.Contains(err.Error(), "no_such_bench") {
		t.Errorf("FirstError should report the lowest-index failure, got %v", err)
	}
	if results[0].Status != StatusOK {
		t.Errorf("healthy spec contaminated: %s (%v)", results[0].Status, results[0].Err)
	}
	for _, i := range []int{1, 2} {
		if results[i].Status != StatusFailed || results[i].Err == nil {
			t.Errorf("spec %d: status %s err %v, want failed", i, results[i].Status, results[i].Err)
		}
	}
}

func TestCancellationNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	// Runs must be long enough that the whole sweep cannot finish in
	// the gap between the first run starting and cancel() landing — at
	// 400 intervals the zero-alloc hot path races through all 32 specs
	// first and no run is left to cancel. Canceled runs abort at
	// interval granularity, so the long tail costs nothing.
	specs := make([]Spec, 32)
	for i := range specs {
		specs[i] = Spec{Workload: "applu_in", Policy: "gpht_8_128", Intervals: 50000, Seed: int64(i + 1)}
	}
	hub := telemetry.NewHub(6)
	e := New(Config{Workers: 8, DisableCache: true, Telemetry: hub})
	go func() {
		for hub.FleetStarted.Value() == 0 {
			time.Sleep(time.Millisecond)
		}
		cancel()
	}()
	results, err := e.RunAll(ctx, specs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunAll error = %v, want context.Canceled", err)
	}
	if len(results) != len(specs) {
		t.Fatalf("%d results for %d specs", len(results), len(specs))
	}
	canceled := 0
	for i, r := range results {
		if r.Index != i {
			t.Errorf("result %d carries index %d", i, r.Index)
		}
		if r.Status == StatusCanceled {
			canceled++
		}
	}
	if canceled == 0 {
		t.Error("cancellation mid-sweep produced no canceled runs")
	}
	// Workers must all exit; poll briefly for the runtime to reap
	// them.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked after cancellation: %d before, %d after",
				before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestMapPreservesOrder(t *testing.T) {
	square := func(i int) (int, error) { return i * i, nil }
	for _, workers := range []int{0, 1, 3, 16} {
		got, err := Map(workers, 10, square)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapPropagatesError(t *testing.T) {
	// Every index runs; the lowest-index error wins whatever order the
	// workers finish in.
	var ran atomic.Int64
	got, err := Map(4, 8, func(i int) (int, error) {
		ran.Add(1)
		if i == 2 || i == 5 {
			return 0, fmt.Errorf("fail %d", i)
		}
		return i, nil
	})
	if err == nil || err.Error() != "fail 2" {
		t.Errorf("err = %v, want the index-2 failure", err)
	}
	if ran.Load() != 8 || len(got) != 8 || got[7] != 7 {
		t.Errorf("ran %d of 8, results %v", ran.Load(), got)
	}
}

func TestMapEmptyAndSingle(t *testing.T) {
	if got, err := Map(4, 0, func(int) (int, error) { return 1, nil }); err != nil || len(got) != 0 {
		t.Errorf("n=0: %v, %v", got, err)
	}
	if got, err := Map(4, 1, func(int) (string, error) { return "x", nil }); err != nil || len(got) != 1 || got[0] != "x" {
		t.Errorf("n=1: %v, %v", got, err)
	}
}

func TestPerRunTimeout(t *testing.T) {
	e := New(Config{Workers: 1, Timeout: time.Nanosecond})
	results, err := e.RunAll(context.Background(), []Spec{
		{Workload: "applu_in", Policy: "baseline", Intervals: 4000},
	})
	if err == nil {
		t.Fatal("want error from timed-out run")
	}
	if results[0].Status != StatusCanceled {
		t.Errorf("status = %s, want canceled", results[0].Status)
	}
	if !errors.Is(results[0].Err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want DeadlineExceeded", results[0].Err)
	}
}

func TestRunAllCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	e := New(Config{Workers: 2})
	_, err := e.RunAll(ctx, sweepSpecs()[:3])
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

func TestStatusString(t *testing.T) {
	cases := map[Status]string{
		StatusOK:       "ok",
		StatusCached:   "cached",
		StatusFailed:   "failed",
		StatusCanceled: "canceled",
		Status(0):      "status(0)",
	}
	for s, want := range cases {
		if got := s.String(); got != want {
			t.Errorf("Status(%d).String() = %q, want %q", uint8(s), got, want)
		}
	}
}

func TestFirstErrorOrdering(t *testing.T) {
	errA, errB := errors.New("a"), errors.New("b")
	rs := []Result{
		{Index: 5, Spec: Spec{Workload: "w5"}, Status: StatusFailed, Err: errB},
		{Index: 2, Spec: Spec{Workload: "w2"}, Status: StatusFailed, Err: errA},
		{Index: 0, Status: StatusOK},
	}
	if err := FirstError(rs); !errors.Is(err, errA) {
		t.Errorf("FirstError = %v, want the index-2 failure", err)
	}
	if err := FirstError(rs[2:]); err != nil {
		t.Errorf("FirstError over successes = %v, want nil", err)
	}
}

func TestTelemetryLifecycleCounters(t *testing.T) {
	hub := telemetry.NewHub(6)
	e := New(Config{Workers: 2, Telemetry: hub})
	specs := sweepSpecs()[:4]
	if _, err := e.RunAll(context.Background(), specs); err != nil {
		t.Fatal(err)
	}
	if got := hub.FleetStarted.Value(); got != uint64(len(specs)) {
		t.Errorf("FleetStarted = %d, want %d", got, len(specs))
	}
	if got := hub.FleetCompleted.Value(); got != uint64(len(specs)) {
		t.Errorf("FleetCompleted = %d, want %d", got, len(specs))
	}
	if got := hub.FleetQueueDepth.Value(); got != 0 {
		t.Errorf("FleetQueueDepth = %v after sweep, want 0", got)
	}
	if hub.FleetRunSeconds.Snapshot().Count != uint64(len(specs)) {
		t.Errorf("FleetRunSeconds count = %d, want %d", hub.FleetRunSeconds.Snapshot().Count, len(specs))
	}
}
