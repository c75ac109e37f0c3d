// Command perfbench is phasemon's end-to-end benchmark. It drives the
// system only through its public package APIs, in one process, on one
// of three workloads:
//
//   - serve-batched: an in-process phased server (default Config plus a
//     telemetry.Hub, as cmd/phased runs it) under 2 phaseclient
//     connections x 8 sessions on the batched protocol, closed loop,
//     48 samples outstanding per session;
//   - serve-perframe: the same server under 2 connections x 16
//     sessions on the v1 per-frame protocol, each session in lockstep
//     (one sample outstanding), as a DVFS governor actuates;
//   - sweep-zoo: tournament.Run, what phasearena runs, over 6 workload
//     profiles crossed with the whole predictor zoo.
//
// Every run checks its outputs: each streamed prediction against a
// local replay of the same counters, the sample conservation law
// against the server's counters, and each leaderboard against a
// single-worker reference. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}. With
// -trace 0 the metrics are the end-to-end ones (see BENCHMARK.json);
// with -trace 1 the run spends half the window untraced and half
// traced, and reports the per-layer metrics, the layer ladder and the
// tracing overhead (traced over untraced); spans go to -spans-dir.
//
// Usage:
//
//	perfbench --workload serve-batched --seed 1 --seconds 10 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"time"
)

// hardLimit bounds a whole invocation: a run that has not finished by
// then exits non-zero instead of hanging.
const hardLimit = 170 * time.Second

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is what a workload run produced, before it is shaped into
// the catalogue's metrics.
type outcome struct {
	attempted, failed uint64
	problems          []string
	values            map[string]float64
}

func (o *outcome) add(other outcome) {
	o.attempted += other.attempted
	o.failed += other.failed
	o.problems = append(o.problems, other.problems...)
}

func main() {
	name := flag.String("workload", "", "serve-batched, serve-perframe or sweep-zoo")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 10, "length of each timed window")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	spansDir := flag.String("spans-dir", "", "directory for a traced run's spans (empty = not written)")
	flag.Parse()

	limit := time.AfterFunc(hardLimit, func() {
		fmt.Fprintf(os.Stderr, "perfbench: no result after %v; giving up\n", hardLimit)
		os.Exit(3)
	})
	defer limit.Stop()
	ctx, cancel := context.WithTimeout(context.Background(), hardLimit-10*time.Second)
	defer cancel()

	rep, problems, err := run(ctx, *name, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, *spansDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-48s %16.6g %s\n", n, rep.Metrics[n].Value, rep.Metrics[n].Unit)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run measures one workload and shapes the report.
func run(ctx context.Context, name string, seed int64, seconds time.Duration, traced bool, spansDir string) (report, []string, error) {
	var o outcome
	var err error
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	switch name {
	case "serve-batched", "serve-perframe":
		w := serveWorkloads[name]
		if traced {
			o, err = traceServe(ctx, w, seed, seconds, tr)
		} else {
			o, err = measureServe(ctx, w, seed, seconds)
		}
	case "sweep-zoo":
		if traced {
			o, err = traceSweep(ctx, seed, seconds, tr)
		} else {
			o, err = measureSweep(ctx, seed, seconds)
		}
	default:
		return report{}, nil, fmt.Errorf("unknown workload %q (want serve-batched, serve-perframe or sweep-zoo)", name)
	}
	if err != nil {
		return report{}, nil, err
	}
	if traced && spansDir != "" {
		if err := tr.write(spansDir, fmt.Sprintf("spans-%s-seed%d.json", name, seed)); err != nil {
			return report{}, nil, fmt.Errorf("writing spans: %w", err)
		}
	}
	cat := endToEnd
	if traced {
		cat = perLayer()
	}
	rep := report{Attempted: o.attempted, Failed: o.failed, Metrics: make(map[string]metric, len(cat))}
	for _, m := range cat {
		v, ok := o.values[m.name]
		if !ok {
			return report{}, nil, fmt.Errorf("metric %s not measured", m.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			o.problems = append(o.problems, fmt.Sprintf("metric %s is %v", m.name, v))
			v = 0
		}
		rep.Metrics[m.name] = metric{Value: v, Unit: m.unit}
	}
	if rep.Attempted == 0 {
		rep.Attempted, rep.Failed = 1, 1
		o.problems = append(o.problems, "nothing attempted")
	}
	rep.Correct = rep.Failed == 0 && len(o.problems) == 0
	return rep, o.problems, nil
}

var serveWorkloads = map[string]serveWorkload{
	"serve-batched":  {conns: 2, perConn: 8, window: 48, batched: true},
	"serve-perframe": {conns: 2, perConn: 16, window: 1},
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// measureServe is the untraced serve run: the end-to-end metrics.
func measureServe(ctx context.Context, w serveWorkload, seed int64, seconds time.Duration) (outcome, error) {
	refs, err := buildRefs(ctx, serveProfiles, w.sessions(), seed, nil, nil, 0)
	if err != nil {
		return outcome{}, err
	}
	res, err := runServe(ctx, w, refs, seconds, nil, nil)
	if err != nil {
		return outcome{}, err
	}
	o := serveOutcome(res)
	o.values = serveE2E(res)
	return o, nil
}

func serveOutcome(res *serveResult) outcome {
	failed, problems := res.counts.verdict()
	return outcome{attempted: res.counts.sent, failed: failed, problems: problems}
}

func serveE2E(res *serveResult) map[string]float64 {
	var rate, cpu, p50, p90 []float64
	for _, sl := range res.slices {
		n := float64(sl.answered)
		rate = append(rate, ratio(n, sl.wall.Seconds()))
		cpu = append(cpu, ratio(sl.cpu.Seconds()*1e6, n))
		p50 = append(p50, percentile(sl.rtts, 0.50))
		p90 = append(p90, percentile(sl.rtts, 0.90))
	}
	return map[string]float64{
		"setup_s":           res.setupS,
		"samples_per_s":     median(rate),
		"rtt_p50_us":        median(p50),
		"rtt_p90_us":        median(p90),
		"cpu_us_per_sample": median(cpu),
		"leaderboard_s":     median(res.laps),
		"peak_rss_mb":       res.peakMB,
	}
}

// measureSweep is the untraced sweep run: the end-to-end metrics.
func measureSweep(ctx context.Context, seed int64, seconds time.Duration) (outcome, error) {
	g, setupS, err := parseSweepGrid(seed, nil, 0)
	if err != nil {
		return outcome{}, err
	}
	ref, refBytes, err := sweepReference(ctx, g)
	if err != nil {
		return outcome{}, err
	}
	res := runSweep(ctx, g, ref, refBytes, seconds, minBoards, nil, nil, nil)
	res.setupS = setupS
	o := outcome{attempted: res.cells, failed: res.failed, problems: res.problems}
	o.values = sweepE2E(res)
	return o, nil
}

func sweepE2E(res *sweepResult) map[string]float64 {
	boards := sorted(res.boards)
	return map[string]float64{
		"setup_s":           res.setupS,
		"samples_per_s":     median(res.rates),
		"rtt_p50_us":        percentile(boards, 0.50) * 1e6,
		"rtt_p90_us":        percentile(boards, 0.90) * 1e6,
		"cpu_us_per_sample": median(res.cpuPer),
		"leaderboard_s":     median(boards),
		"peak_rss_mb":       res.peakMB,
	}
}

// overhead adds trace.overhead_frac.<m> for every end-to-end metric:
// the traced run's value relative to the untraced run's.
func overhead(values, untraced, traced map[string]float64) {
	for _, m := range endToEnd {
		values["trace.overhead_frac."+m.name] = ratio(traced[m.name]-untraced[m.name], untraced[m.name])
	}
}
