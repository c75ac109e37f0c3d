package main

import (
	"context"
	"time"

	"phasemon/internal/telemetry"
)

// traceServe is the traced serve run: an untraced measurement, then a
// traced one, each over half the window, then the layer ladder on the
// workload's recorded stream.
func traceServe(ctx context.Context, w serveWorkload, seed int64, seconds time.Duration, tr *tracer) (outcome, error) {
	refHub := telemetry.NewHub(0)
	sp := tr.begin("references", 0)
	refs, err := buildRefs(ctx, serveProfiles, w.sessions(), seed, refHub, tr, sp.id)
	sp.end(1)
	if err != nil {
		return outcome{}, err
	}
	untraced, err := runServe(ctx, w, refs, seconds/2, nil, nil)
	if err != nil {
		return outcome{}, err
	}
	traced, err := runServe(ctx, w, refs, seconds/2, tr, nil)
	if err != nil {
		return outcome{}, err
	}
	o := serveOutcome(untraced)
	o.add(serveOutcome(traced))

	v := zeroLayers()
	e2eUntraced, e2eTraced := serveE2E(untraced), serveE2E(traced)
	overhead(v, e2eUntraced, e2eTraced)
	loopbackNs := e2eUntraced["cpu_us_per_sample"] * 1e3
	if err := ladderMetrics(ctx, v, refs, w.batched, loopbackNs, seed, tr); err != nil {
		return outcome{}, err
	}

	n := float64(traced.answered)
	v["phaseclient.send_ns_p50"] = percentile(tr.durations("phaseclient.Send"), 0.5)
	v["phaseclient.recv_wait_us_p50"] = percentile(tr.durations("phaseclient.Recv"), 0.5) / 1e3
	v["phaseclient.open_ms_p50"] = percentile(tr.durations("phaseclient.Open"), 0.5) / 1e6

	h0, h1 := traced.h0, traced.h1
	v["phased.frames_in_per_sample"] = ratio(float64(h1.framesIn-h0.framesIn), n)
	v["phased.frames_out_per_sample"] = ratio(float64(h1.framesOut-h0.framesOut), n)
	flushFrames := histDelta(h0.flushFrames, h1.flushFrames)
	v["phased.predictions_per_flush"] = ratio(flushFrames.Sum, float64(flushFrames.Count))
	flushSec := histDelta(h0.flushSec, h1.flushSec)
	v["phased.flush_us_p50"] = histQuantile(flushSec.Bounds, flushSec.Counts, 0.5) * 1e6
	frameSec := histDelta(h0.frameSec, h1.frameSec)
	v["phased.step_write_us_p50"] = histQuantile(frameSec.Bounds, frameSec.Counts, 0.5) * 1e6
	v["phased.step_write_us_p99"] = histQuantile(frameSec.Bounds, frameSec.Counts, 0.99) * 1e6
	v["phased.dropped_samples"] = float64(traced.counts.shed)
	v["phased.protocol_errors"] = float64(traced.counts.protoErrs)
	v["phased.shutdown_ms"] = float64(traced.shutdown.Nanoseconds()) / 1e6

	v["agg.ingested_per_sample"] = ratio(float64(h1.aggIngested-h0.aggIngested), n)
	v["agg.late_samples"] = float64(h1.late)
	v["agg.buckets_dropped"] = float64(h1.bucketsDropped)

	hits, misses := float64(h1.gphtHits-h0.gphtHits), float64(h1.gphtMisses-h0.gphtMisses)
	v["core.gpht_hit_ratio"] = ratio(hits, hits+misses)
	v["core.mispredict_ratio"] = ratio(float64(h1.mispred-h0.mispred), float64(h1.steps-h0.steps))
	v["governor.pmi_budget_violations"] = float64(refHub.BudgetViolations.Value())
	v["wcache.hit_ratio"] = cacheHitRatio(refHub)

	v["loadgen.rtt_p99_us"] = percentile(traced.rtts, 0.99)
	v["loadgen.rtt_p999_us"] = percentile(traced.rtts, 0.999)
	v["loadgen.sent"] = float64(traced.counts.sent)
	v["loadgen.answered"] = float64(traced.counts.answered)
	v["loadgen.fail_frac"] = ratio(float64(o.failed), float64(o.attempted))
	v["process.cpu_util"] = traced.win.cpuUtil()
	v["process.allocs_per_sample"] = ratio(float64(traced.win.mallocs), n)
	v["process.gc_cycles"] = float64(traced.win.gcs)
	o.values = v
	return o, nil
}

// traceSweep is the traced sweep run: an untraced half window, a traced
// one, one leaderboard observed by a telemetry hub (for the program's
// own counters, whose cost is kept out of both windows), the fleet
// engine alone on the same cells, and the layer ladder on the sweep's
// traces.
func traceSweep(ctx context.Context, seed int64, seconds time.Duration, tr *tracer) (outcome, error) {
	g, untracedSetupS, err := parseSweepGrid(seed, nil, 0)
	if err != nil {
		return outcome{}, err
	}
	sp := tr.begin("setup", 0)
	_, tracedSetupS, err := parseSweepGrid(seed, tr, sp.id)
	sp.end(1)
	if err != nil {
		return outcome{}, err
	}
	ref, refBytes, err := sweepReference(ctx, g)
	if err != nil {
		return outcome{}, err
	}
	untraced := runSweep(ctx, g, ref, refBytes, seconds/2, minBoards, nil, nil, nil)
	traced := runSweep(ctx, g, ref, refBytes, seconds/2, minBoards, tr, nil, nil)
	hub := telemetry.NewHub(0)
	observed := runSweep(ctx, g, ref, refBytes, 0, 1, tr, hub, nil)
	untraced.setupS, traced.setupS = untracedSetupS, tracedSetupS
	o := outcome{
		attempted: untraced.cells + traced.cells + observed.cells,
		failed:    untraced.failed + traced.failed + observed.failed,
	}
	o.problems = append(append(untraced.problems, traced.problems...), observed.problems...)
	fr := runFleet(ctx, ref, fleetReps, tr)
	o.attempted += uint64(len(fr.runsMs))
	o.failed += fr.failed

	v := zeroLayers()
	e2eUntraced, e2eTraced := sweepE2E(untraced), sweepE2E(traced)
	overhead(v, e2eUntraced, e2eTraced)

	sp = tr.begin("references", 0)
	refs, err := buildRefs(ctx, sweepProfiles, len(sweepProfiles), seed, nil, tr, sp.id)
	sp.end(1)
	if err != nil {
		return outcome{}, err
	}
	if err := ladderMetrics(ctx, v, refs, false, 0, seed, tr); err != nil {
		return outcome{}, err
	}

	boards := float64(len(traced.boards))
	v["core.gpht_hit_ratio"] = ratio(float64(hub.GPHTHits.Value()), float64(hub.GPHTHits.Value()+hub.GPHTMisses.Value()))
	v["core.mispredict_ratio"] = ratio(float64(hub.Mispredictions.Value()), float64(hub.Steps.Value()))
	v["governor.pmi_budget_violations"] = float64(hub.BudgetViolations.Value())
	v["wcache.hit_ratio"] = cacheHitRatio(hub)
	board := e2eUntraced["leaderboard_s"]
	v["fleet.run_ms_p50"] = percentile(fr.runsMs, 0.50)
	v["fleet.run_ms_p99"] = percentile(fr.runsMs, 0.99)
	v["fleet.busy_frac"] = ratio(median(fr.busyS), sweepWorkers*board)
	v["fleet.runs_failed"] = float64(hub.FleetFailed.Value() + fr.failed)
	v["tournament.overhead_ms"] = (board - median(fr.walls)) * 1e3
	v["tournament.cells"] = ratio(float64(hub.TournamentCells.Value()), float64(len(observed.boards)))

	v["loadgen.rtt_p99_us"] = percentile(sorted(traced.boards), 0.99) * 1e6
	v["loadgen.rtt_p999_us"] = percentile(sorted(traced.boards), 0.999) * 1e6
	v["loadgen.sent"] = boards
	v["loadgen.answered"] = float64(traced.ok)
	v["loadgen.fail_frac"] = ratio(float64(o.failed), float64(o.attempted))
	v["process.cpu_util"] = traced.win.cpuUtil()
	v["process.allocs_per_interval"] = ratio(float64(traced.win.mallocs), float64(traced.intervals))
	v["process.gc_cycles"] = float64(traced.win.gcs)
	o.values = v
	return o, nil
}

// zeroLayers starts every per-layer metric at 0, the reading for a
// layer a workload does not exercise.
func zeroLayers() map[string]float64 {
	v := make(map[string]float64)
	for _, m := range perLayer() {
		v[m.name] = 0
	}
	return v
}

func cacheHitRatio(h *telemetry.Hub) float64 {
	hits, misses := float64(h.WorkloadCacheHits.Value()), float64(h.WorkloadCacheMisses.Value())
	return ratio(hits, hits+misses)
}

// ladderMetrics measures the layers the ladder reaches on a recorded
// stream: every predictor spec's Observe and Monitor.Step, the wire
// codecs, agg ingest, the cumulative rungs (batched or per-frame
// framing), and the governor and wcache costs. loopbackNs is the
// measured end-to-end CPU per sample (0 where nothing is served).
func ladderMetrics(ctx context.Context, v map[string]float64, refs []sessionRef, batched bool, loopbackNs float64, seed int64, tr *tracer) error {
	sp := tr.begin("ladder", 0)
	defer sp.end(1)
	if len(refs) > ladderSessions {
		refs = refs[:ladderSessions]
	}
	l, err := newLadder(refs, batched, tr, sp.id)
	if err != nil {
		return err
	}
	for _, s := range coreSpecs() {
		if v["core.observe_ns."+s], err = l.observeNs(s); err != nil {
			return err
		}
		if v["core.monitor_step_ns."+s], err = l.stepNs("core.Monitor.Step."+s, s, nil); err != nil {
			return err
		}
	}
	v["agg.ingest_ns"] = l.ingestNs()
	for _, b := range []bool{true, false} {
		c, err := l.codec(b)
		if err != nil {
			return err
		}
		if b {
			v["wire.batch_encode_ns_per_sample"], v["wire.batch_decode_ns_per_sample"] = c.encodeNs, c.decodeNs
		} else {
			v["wire.frame_encode_ns"], v["wire.frame_decode_ns"] = c.encodeNs, c.decodeNs
		}
		if b == batched {
			v["wire.bytes_per_sample_in"], v["wire.bytes_per_sample_out"] = c.bytesIn, c.bytesOut
		}
	}

	rungs := []string{"ladder.observe_ns", "ladder.monitor_step_ns", "ladder.agg_ingest_ns", "ladder.wire_ns", "ladder.loopback_ns"}
	v[rungs[0]] = v["core.observe_ns."+serveSpec]
	if v[rungs[1]], err = l.stepNs("ladder.monitor_step", serveSpec, telemetry.NewHub(0)); err != nil {
		return err
	}
	if v[rungs[2]], err = l.servedNs("ladder.agg_ingest"); err != nil {
		return err
	}
	if v[rungs[3]], err = l.wireRungNs(); err != nil {
		return err
	}
	v[rungs[4]] = loopbackNs
	for i := 1; i < len(rungs); i++ {
		if v[rungs[i]] > 0 {
			v[rungs[i][:len(rungs[i])-3]+"_delta_ns"] = v[rungs[i]] - v[rungs[i-1]]
		}
	}

	gov, err := governorNs(ctx, seed, tr, sp.id)
	if err != nil {
		return err
	}
	for s, ns := range gov {
		v["governor.run_ns_per_interval."+s] = ns
	}
	v["wcache.materialize_ms"], err = materializeMs(seed, tr, sp.id)
	return err
}
