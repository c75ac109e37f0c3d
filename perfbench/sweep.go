package main

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"time"

	"phasemon/internal/fleet"
	"phasemon/internal/telemetry"
	"phasemon/internal/tournament"
)

// sweepProfiles span the paper's Fig. 3 quadrants: stable CPU-bound
// (crafty, Q1), stable memory-bound (swim, Q2), periodic memory-bound
// (mcf, Q2), the paper's running example and a staircase (applu,
// mgrid, Q3), and a long variable cycle (bzip2, Q4).
var sweepProfiles = []string{"crafty_in", "swim_in", "mcf_inp", "applu_in", "mgrid_in", "bzip2_program"}

const (
	sweepIntervals = 4096
	sweepRounds    = 2
	sweepTop       = 5
	sweepWorkers   = 2
	// parseReps is how many times setup parses and validates the grid;
	// setup_s is the median.
	parseReps = 1001
	// minBoards is the fewest leaderboards a timed window plays.
	minBoards = 3
	// fleetReps is how many times a traced run replays the tournament's
	// cells straight through the fleet engine.
	fleetReps = 3
)

// zooSpecs is tournament.ZooSpecs() as the benchmark was defined —
// one default spec per registered predictor family — pinned so that
// registering a new family later does not silently change the
// workload.
var zooSpecs = []string{"dtree", "duration", "fixwindow", "gpht", "lastvalue", "linreg", "markov", "runlength", "varwindow"}

// sweepSpecs is the whole zoo plus the GPHT table sizes and the long
// majority window that stress the O(n) predictor paths.
func sweepSpecs() []string {
	return append(append([]string(nil), zooSpecs...), "gpht_8_64", "gpht_8_1024", "fixwindow_128_majority")
}

// sweepGrid is the phasearena -grid string for a seed.
func sweepGrid(seed int64) string {
	return fmt.Sprintf("workloads=%s;specs=%s;intervals=%d;seed=%d",
		strings.Join(sweepProfiles, ","), strings.Join(sweepSpecs(), ","), sweepIntervals, seed)
}

// sweepResult is what one sweep measurement saw.
type sweepResult struct {
	setupS    float64
	peakMB    float64   // process peak RSS when the window ended
	boards    []float64 // s per leaderboard
	rates     []float64 // governed intervals per second, per correct leaderboard
	cpuPer    []float64 // CPU µs per governed interval, per correct leaderboard
	ok        int       // leaderboards equal to the reference
	intervals uint64    // governed intervals simulated in the window
	cells     uint64    // cells attempted (managed plus baselines, every round)
	failed    uint64    // cells in failed or mismatched leaderboards
	problems  []string
	win       window
}

// boardWork is the governed intervals and cells one leaderboard ran:
// per round, one baseline per workload plus every managed cell.
func boardWork(lb *tournament.Leaderboard) (intervals, cells uint64) {
	nBase := len(lb.Grid.Workloads) * len(lb.Grid.Granularities)
	for _, r := range lb.Rounds {
		n := uint64(len(r.Cells) + nBase)
		cells += n
		intervals += n * uint64(r.Intervals)
	}
	return intervals, cells
}

// parseSweepGrid times setup: parse and validate the grid parseReps
// times and keep the median.
func parseSweepGrid(seed int64, tr *tracer, parent uint64) (tournament.Grid, float64, error) {
	s := sweepGrid(seed)
	times := make([]float64, 0, parseReps)
	var g tournament.Grid
	for k := 0; k < parseReps; k++ {
		sp := tr.begin("tournament.ParseGrid", parent)
		start := time.Now()
		var err error
		if g, err = tournament.ParseGrid(s); err != nil {
			return g, 0, err
		}
		times = append(times, time.Since(start).Seconds())
		sp.end(1)
	}
	return g, median(times), nil
}

// sweepReference is the Workers=1 leaderboard every timed one must
// match byte for byte; computed once per invocation, untimed.
func sweepReference(ctx context.Context, g tournament.Grid) (*tournament.Leaderboard, []byte, error) {
	lb, err := tournament.Run(ctx, tournament.Config{Grid: g, Rounds: sweepRounds, TopK: sweepTop, Workers: 1})
	if err != nil {
		return nil, nil, fmt.Errorf("reference leaderboard: %w", err)
	}
	var buf bytes.Buffer
	if err := lb.Encode(&buf); err != nil {
		return nil, nil, err
	}
	return lb, buf.Bytes(), nil
}

// runSweep plays leaderboards back to back for the window (at least
// boards of them), each through a fresh tournament.Run — a fresh fleet
// engine and workload cache, as one phasearena invocation has — and
// checks each against the reference. hub, when set, observes them as
// an instrumented deployment would; phasearena runs unobserved.
func runSweep(ctx context.Context, g tournament.Grid, ref *tournament.Leaderboard, refBytes []byte, seconds time.Duration, boards int, tr *tracer, hub *telemetry.Hub, corrupt func([]byte)) *sweepResult {
	root := tr.begin("sweep", 0)
	defer root.end(1)
	res := &sweepResult{}
	_, refCells := boardWork(ref)
	p0 := takeSnap()
	for len(res.boards) < boards || time.Since(p0.wall) < seconds {
		if ctx.Err() != nil {
			res.failed += refCells
			res.cells += refCells
			res.problems = append(res.problems, fmt.Sprintf("window cut short: %v", ctx.Err()))
			break
		}
		sp := tr.begin("tournament.Run", root.id)
		start, cpu0 := time.Now(), cpuTime()
		lb, err := tournament.Run(ctx, tournament.Config{Grid: g, Rounds: sweepRounds, TopK: sweepTop, Workers: sweepWorkers, Telemetry: hub})
		var buf bytes.Buffer
		if err == nil {
			err = lb.Encode(&buf)
		}
		d, cpu := time.Since(start), cpuTime()-cpu0
		sp.end(1)
		res.boards = append(res.boards, d.Seconds())
		if err != nil {
			res.failed += refCells
			res.cells += refCells
			res.problems = append(res.problems, err.Error())
			continue
		}
		got := buf.Bytes()
		if corrupt != nil {
			corrupt(got)
		}
		iv, cells := boardWork(lb)
		res.intervals += iv
		res.cells += cells
		if err := checkLeaderboard(got, refBytes); err != nil {
			res.failed += cells
			res.problems = append(res.problems, err.Error())
			continue
		}
		res.ok++
		res.rates = append(res.rates, float64(iv)/d.Seconds())
		res.cpuPer = append(res.cpuPer, cpu.Seconds()*1e6/float64(iv))
	}
	res.win = p0.to(takeSnap())
	res.peakMB = peakRSSMB()
	return res
}

// fleetCells rebuilds the fleet specs a tournament ran from its
// leaderboard: per round, baselines first, then every spec alive in
// that round in the order the previous round ranked them, as
// tournament.Run submits them.
func fleetCells(ref *tournament.Leaderboard) [][]fleet.Spec {
	var rounds [][]fleet.Spec
	alive := ref.Grid.Specs
	for k, r := range ref.Rounds {
		if k > 0 {
			prev := ref.Rounds[k-1].Standings[:len(r.Standings)]
			alive = make([]string, len(prev))
			for i, st := range prev {
				alive[i] = st.Spec
			}
		}
		var specs []fleet.Spec
		for _, w := range ref.Grid.Workloads {
			for _, gr := range ref.Grid.Granularities {
				specs = append(specs, fleet.Spec{Workload: w, Policy: "baseline", Intervals: r.Intervals, GranularityUops: gr})
			}
		}
		for _, w := range ref.Grid.Workloads {
			for _, s := range alive {
				for _, gr := range ref.Grid.Granularities {
					specs = append(specs, fleet.Spec{Workload: w, Policy: s, Intervals: r.Intervals, GranularityUops: gr})
				}
			}
		}
		rounds = append(rounds, specs)
	}
	return rounds
}

// fleetResult is the engine measured alone on the tournament's cells.
type fleetResult struct {
	walls  []float64 // s per repetition (all rounds)
	runsMs []float64 // ms per executed (uncached) run, ascending
	busyS  []float64 // Σ run wall time per repetition, s
	failed uint64
}

// runFleet runs the tournament's cell specs straight through
// fleet.Engine.RunAll, reps times, one fresh engine per repetition.
func runFleet(ctx context.Context, ref *tournament.Leaderboard, reps int, tr *tracer) fleetResult {
	root := tr.begin("fleet", 0)
	defer root.end(1)
	var fr fleetResult
	rounds := fleetCells(ref)
	for k := 0; k < reps; k++ {
		eng := fleet.New(fleet.Config{Workers: sweepWorkers, BaseSeed: ref.Grid.Seed})
		start := time.Now()
		var busy float64
		for _, specs := range rounds {
			sp := tr.begin("fleet.Engine.RunAll", root.id)
			results, err := eng.RunAll(ctx, specs)
			sp.end(int64(len(specs)))
			if err != nil {
				fr.failed++
			}
			for _, r := range results {
				if !r.OK() {
					fr.failed++
				}
				if r.Status == fleet.StatusOK {
					fr.runsMs = append(fr.runsMs, float64(r.Elapsed)/1e6)
					busy += r.Elapsed.Seconds()
				}
			}
		}
		fr.walls = append(fr.walls, time.Since(start).Seconds())
		fr.busyS = append(fr.busyS, busy)
	}
	fr.runsMs = sorted(fr.runsMs)
	return fr
}
