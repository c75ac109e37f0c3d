// Package fleet is the concurrent run engine behind the repo's sweeps:
// it shards governed-run specs across a bounded worker pool and
// returns typed results in spec order, while guaranteeing that the
// numbers are bit-identical to a serial execution. Map, the ordered
// pool underneath, serves any other index-parallel computation.
//
// The determinism contract has three legs:
//
//   - per-spec seeding: every spec resolves its own generator seed
//     (Spec.EffectiveSeed) before any worker touches it, so no run's
//     input depends on scheduling;
//   - fresh state per run: policies rebuild their predictor for every
//     run, so no predictor state leaks between concurrent runs;
//   - indexed delivery: each result is written into its spec's slot,
//     so aggregation orders by index, not by completion.
//
// On top sit the operational concerns a long sweep needs: context
// cancellation and per-run timeouts (through governor.RunContext), a
// content-keyed result cache with single-flight de-duplication of
// concurrent identical specs, and live telemetry through the same
// *telemetry.Hub the rest of the pipeline reports to.
package fleet

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"phasemon/internal/cpusim"
	"phasemon/internal/dvfs"
	"phasemon/internal/governor"
	"phasemon/internal/machine"
	"phasemon/internal/phase"
	"phasemon/internal/telemetry"
	"phasemon/internal/wcache"
	"phasemon/internal/workload"
)

// Config parameterizes an Engine.
type Config struct {
	// Workers bounds run concurrency; values below 1 select
	// runtime.GOMAXPROCS(0). The worker count never affects results,
	// only wall time.
	Workers int
	// Timeout, when positive, bounds each individual run's wall time; a
	// run that exceeds it fails with StatusCanceled.
	Timeout time.Duration
	// BaseSeed seeds specs that carry no seed of their own (see
	// Spec.EffectiveSeed); 0 selects 1.
	BaseSeed int64
	// DisableCache turns off result caching and single-flight joining,
	// so every spec executes even when repeated — benchmarks measuring
	// run throughput need this.
	DisableCache bool
	// DisableWorkloadCache turns off the shared workload-trace cache,
	// so every run re-synthesizes its generator stream. Results are
	// bit-identical either way (the cache stores exactly what the
	// generator would emit); the switch exists for memory-constrained
	// sweeps and for benchmarking synthesis cost.
	DisableWorkloadCache bool
	// Telemetry, when non-nil, observes the sweep live: run lifecycle
	// counters, cache hits, queue depth, and per-run wall-time
	// distribution, plus the usual monitor/DVFS instrumentation inside
	// each run. Nil runs unobserved.
	Telemetry *telemetry.Hub
}

// Engine executes spec sweeps. An Engine is safe for concurrent use;
// its cache is shared across RunAll calls, so repeating a sweep is nearly
// free.
type Engine struct {
	cfg Config

	// traces shares materialized workload streams across runs; nil
	// when Config.DisableWorkloadCache is set.
	traces *wcache.Cache

	mu       sync.Mutex
	cache    map[string]*governor.Result // guarded by mu
	inflight map[string]*flight          // guarded by mu

	// pending counts accepted-but-unfinished specs for the queue-depth
	// gauge.
	pending atomic.Int64
}

// flight is one in-progress execution that duplicate specs join
// instead of re-running.
type flight struct {
	done chan struct{}
	res  *governor.Result
	err  error
}

// New builds an engine.
func New(cfg Config) *Engine {
	e := &Engine{
		cfg:      cfg,
		cache:    make(map[string]*governor.Result),
		inflight: make(map[string]*flight),
	}
	if !cfg.DisableWorkloadCache {
		e.traces = wcache.New(wcache.Config{Telemetry: cfg.Telemetry})
	}
	return e
}

// RunAll runs the sweep to completion and returns results in spec
// order, each written into its index by Map's statically sharded pool
// (which pins every spec's executing worker independent of timing). The returned error is
// ctx.Err() if the sweep was canceled, else the lowest-index run
// failure, else nil; the full result slice is returned either way so
// partial sweeps stay inspectable.
func (e *Engine) RunAll(ctx context.Context, specs []Spec) ([]Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	e.addPending(len(specs))
	out, _ := Map(e.cfg.Workers, len(specs), func(i int) (Result, error) {
		r := e.runOne(ctx, i, e.resolve(specs[i]))
		e.addPending(-1)
		return r, nil
	})
	if err := ctx.Err(); err != nil {
		return out, err
	}
	return out, FirstError(out)
}

// Map evaluates f(0), ..., f(n-1) on a pool of goroutines and returns
// the results in index order. Sharding is static: worker w
// takes indices w, w+W, w+2W, ... for W workers. workers < 1 selects
// runtime.GOMAXPROCS(0). Every index runs even after a failure; the
// returned error is the lowest-index one, and the result slice is
// returned either way.
func Map[R any](workers, n int, f func(i int) (R, error)) ([]R, error) {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, n)
	out := make([]R, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < n; i += workers {
				out[i], errs[i] = f(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return out, err
		}
	}
	return out, nil
}

// resolve fills a spec's derived fields so caching, seeding, and
// execution all see the same canonical value.
func (e *Engine) resolve(sp Spec) Spec {
	sp.Seed = sp.EffectiveSeed(e.cfg.BaseSeed)
	if sp.GranularityUops == 0 {
		sp.GranularityUops = 100_000_000
	}
	return sp
}

// addPending moves the queue-depth gauge.
func (e *Engine) addPending(delta int) {
	v := e.pending.Add(int64(delta))
	if tel := e.cfg.Telemetry; tel != nil {
		tel.FleetQueueDepth.Set(float64(v))
	}
}

// runOne produces the Result for one resolved spec: cache hit, joined
// duplicate, fresh execution, or cancellation.
func (e *Engine) runOne(ctx context.Context, idx int, sp Spec) Result {
	if err := ctx.Err(); err != nil {
		return Result{Index: idx, Spec: sp, Status: StatusCanceled, Err: err}
	}
	if e.cfg.DisableCache {
		return e.executeResult(ctx, idx, sp)
	}

	key := sp.Key()
	e.mu.Lock()
	if res, ok := e.cache[key]; ok {
		e.mu.Unlock()
		if tel := e.cfg.Telemetry; tel != nil {
			tel.FleetCacheHits.Inc()
		}
		return Result{Index: idx, Spec: sp, Status: StatusCached, Res: res}
	}
	if f, ok := e.inflight[key]; ok {
		e.mu.Unlock()
		select {
		case <-f.done:
		case <-ctx.Done():
			return Result{Index: idx, Spec: sp, Status: StatusCanceled, Err: ctx.Err()}
		}
		if f.err != nil {
			return e.failure(idx, sp, f.err, 0)
		}
		if tel := e.cfg.Telemetry; tel != nil {
			tel.FleetCacheHits.Inc()
		}
		return Result{Index: idx, Spec: sp, Status: StatusCached, Res: f.res}
	}
	f := &flight{done: make(chan struct{})}
	e.inflight[key] = f
	e.mu.Unlock()

	r := e.executeResult(ctx, idx, sp)
	f.res, f.err = r.Res, r.Err
	close(f.done)
	e.mu.Lock()
	delete(e.inflight, key)
	if r.Err == nil && r.Res != nil {
		e.cache[key] = r.Res
	}
	e.mu.Unlock()
	return r
}

// executeResult runs the spec and wraps the outcome.
func (e *Engine) executeResult(ctx context.Context, idx int, sp Spec) Result {
	tel := e.cfg.Telemetry
	if tel != nil {
		tel.FleetStarted.Inc()
	}
	runCtx := ctx
	if e.cfg.Timeout > 0 {
		var cancel context.CancelFunc
		runCtx, cancel = context.WithTimeout(ctx, e.cfg.Timeout)
		defer cancel()
	}
	start := time.Now()
	res, err := runSpec(runCtx, sp, tel, e.traces)
	elapsed := time.Since(start)
	if tel != nil {
		tel.FleetRunSeconds.Observe(elapsed.Seconds())
		if err != nil {
			tel.FleetFailed.Inc()
		} else {
			tel.FleetCompleted.Inc()
		}
	}
	if err != nil {
		return e.failure(idx, sp, err, elapsed)
	}
	return Result{Index: idx, Spec: sp, Status: StatusOK, Res: res, Elapsed: elapsed}
}

// failure classifies an error outcome: context errors mean the run was
// cut short, everything else is a genuine failure.
func (e *Engine) failure(idx int, sp Spec, err error, elapsed time.Duration) Result {
	status := StatusFailed
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		status = StatusCanceled
	}
	return Result{Index: idx, Spec: sp, Status: status, Err: err, Elapsed: elapsed}
}

// runSpec materializes and executes one resolved spec: workload
// profile, classifier, generator, translation, policy, governed run.
// A non-nil trace cache supplies shared, read-only workload streams;
// otherwise each run synthesizes its own.
func runSpec(ctx context.Context, sp Spec, tel *telemetry.Hub, traces *wcache.Cache) (*governor.Result, error) {
	prof, err := workload.ByName(sp.Workload)
	if err != nil {
		return nil, err
	}
	var tab *phase.Table
	if sp.Phases != "" {
		tab, err = phase.ParseTable("custom", sp.Phases)
		if err != nil {
			return nil, err
		}
	}
	params := workload.Params{
		GranularityUops: float64(sp.GranularityUops),
		Seed:            sp.Seed,
		Intervals:       sp.Intervals,
	}
	intervals := sp.Intervals
	if intervals <= 0 {
		intervals = prof.DefaultIntervals
	}
	var gen workload.Generator
	if traces != nil {
		gen = traces.Get(prof, params).Generator()
	} else {
		gen = prof.Generator(params)
	}
	cfg := governor.Config{
		GranularityUops: sp.GranularityUops,
		// The run logs exactly one entry per interval; sizing the kernel
		// log to that count (clamped to the module's default bound, so
		// ring semantics are unchanged) makes the PMI path allocation-free.
		LogCapacity: min(intervals, 65536),
		Telemetry:   tel,
	}
	if tab != nil {
		cfg.Classifier = tab
	}
	if sp.Bound > 0 {
		tr, err := boundedTranslation(sp.Bound, tab)
		if err != nil {
			return nil, err
		}
		cfg.Translation = tr
	}
	pol, err := policyFor(sp, gen, cfg.Classifier)
	if err != nil {
		return nil, err
	}
	return governor.RunContext(ctx, gen, pol, cfg)
}

// boundedTranslation derives the Section 6.3 conservative translation:
// settings chosen so the model's worst-case slowdown stays under the
// bound, derived at a pessimistic memory-level parallelism of 2 and
// the core's peak UPC of 1.5.
func boundedTranslation(bound float64, tab *phase.Table) (*dvfs.Translation, error) {
	if tab == nil {
		tab = phase.Default()
	}
	m := cpusim.New(cpusim.DefaultConfig())
	slow := func(mem, coreUPC, f, fmax float64) float64 {
		return m.SlowdownMLP(mem, coreUPC, 2.0, f, fmax)
	}
	return dvfs.DeriveBounded(dvfs.PentiumM(), tab, slow, bound, 1.5)
}

// policyFor resolves the spec's policy string, special-casing the
// oracle: its "future" is the workload's phase trace, which only the
// engine (holding the generator) can precompute.
func policyFor(sp Spec, gen workload.Generator, cls phase.Classifier) (governor.Policy, error) {
	pol, err := governor.PolicyFromSpec(sp.Policy)
	if err == nil {
		return pol, nil
	}
	if errors.Is(err, governor.ErrOracleFuture) {
		future, ferr := governor.FuturePhases(gen, cls, machine.New(machine.Config{}))
		if ferr != nil {
			return nil, ferr
		}
		return governor.Oracle(future), nil
	}
	return nil, err
}
