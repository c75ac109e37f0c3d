package main

import (
	"context"
	"testing"
	"time"

	"phasemon/internal/wire"
)

func TestVerifyPredictionRejectsEveryCorruptedField(t *testing.T) {
	want := expect{actual: 2, next: 5, class: 2, setting: 4}
	good := wire.Prediction{SessionID: 1, Seq: 7, Actual: 2, Next: 5, Class: 2, Setting: 4}
	if !verifyPrediction(&good, 7, want) {
		t.Fatal("the reference answer itself failed the check")
	}
	for name, corrupt := range map[string]func(*wire.Prediction){
		"actual":  func(p *wire.Prediction) { p.Actual++ },
		"next":    func(p *wire.Prediction) { p.Next++ },
		"class":   func(p *wire.Prediction) { p.Class++ },
		"setting": func(p *wire.Prediction) { p.Setting++ },
		"seq":     func(p *wire.Prediction) { p.Seq++ },
		"dropped": func(p *wire.Prediction) { p.Dropped = 1 },
	} {
		p := good
		corrupt(&p)
		if verifyPrediction(&p, 7, want) {
			t.Errorf("a prediction with a corrupted %s passed", name)
		}
	}
}

func TestConservationAndVerdict(t *testing.T) {
	clean := serveCounts{sent: 100, answered: 100, ingested: 100, sessions: 2, drained: 2}
	if failed, problems := clean.verdict(); failed != 0 || len(problems) != 0 {
		t.Fatalf("clean counts failed %d: %v", failed, problems)
	}
	for name, c := range map[string]serveCounts{
		"miscounted shed":    {sent: 100, answered: 100, shed: 1, ingested: 101, sessions: 2, drained: 2},
		"unanswered":         {sent: 100, answered: 99, ingested: 99, sessions: 2, drained: 2},
		"ingest lost one":    {sent: 100, answered: 100, ingested: 99, sessions: 2, drained: 2},
		"mismatch":           {sent: 100, answered: 100, ingested: 100, mismatched: 1, sessions: 2, drained: 2},
		"undrained session":  {sent: 100, answered: 100, ingested: 100, sessions: 2, drained: 1},
		"protocol error":     {sent: 100, answered: 100, ingested: 100, protoErrs: 1, sessions: 2, drained: 2},
		"shed and recounted": {sent: 100, answered: 99, shed: 1, ingested: 100, sessions: 2, drained: 2},
	} {
		if failed, _ := c.verdict(); failed == 0 {
			t.Errorf("%s: verdict reported no failure", name)
		}
	}
	if err := checkConservation(10, 9, 1, 10); err != nil {
		t.Errorf("sent = answered + shed = ingested rejected: %v", err)
	}
}

func TestCheckLeaderboard(t *testing.T) {
	if err := checkLeaderboard([]byte(`{"a":1}`), []byte(`{"a":1}`)); err != nil {
		t.Fatal(err)
	}
	if err := checkLeaderboard([]byte(`{"a":2}`), []byte(`{"a":1}`)); err == nil {
		t.Fatal("differing leaderboards passed")
	}
}

// TestServeRunChecksOutputs drives a small serving run end to end: a
// clean run must pass every check, a corrupted prediction must fail
// it, and a shed count the clients cannot account for must fail it.
func TestServeRunChecksOutputs(t *testing.T) {
	if testing.Short() {
		t.Skip("starts a server and streams for seconds")
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	w := serveWorkload{conns: 1, perConn: 2, window: 8, batched: true}
	refs, err := buildRefs(ctx, serveProfiles, w.sessions(), 3, nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	clean, err := runServe(ctx, w, refs, 200*time.Millisecond, tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	if failed, problems := clean.counts.verdict(); failed != 0 {
		t.Fatalf("clean run failed %d: %v", failed, problems)
	}
	if clean.answered == 0 || len(clean.rtts) == 0 || clean.counts.drained != 2 {
		t.Fatalf("clean run measured nothing: %+v", clean.counts)
	}
	if len(tr.durations("phaseclient.Send")) == 0 || len(tr.durations("phased.Shutdown")) != setupTrials {
		t.Error("traced run recorded no Send spans or the wrong number of Shutdown spans")
	}

	miscounted := clean.counts
	miscounted.shed++
	if failed, _ := miscounted.verdict(); failed == 0 {
		t.Error("a shed count the clients did not see passed")
	}

	corrupted, err := runServe(ctx, w, refs, 200*time.Millisecond, nil, func(session int, p *wire.Prediction) {
		if session == 1 && p.Seq == 10 {
			p.Next ^= 1
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if failed, _ := corrupted.counts.verdict(); failed == 0 || corrupted.counts.mismatched == 0 {
		t.Errorf("a corrupted prediction passed: %+v", corrupted.counts)
	}
}

// TestSweepRunChecksOutputs plays minimal sweep windows: clean
// leaderboards match the single-worker reference, and a corrupted one
// fails every cell it carries.
func TestSweepRunChecksOutputs(t *testing.T) {
	if testing.Short() {
		t.Skip("plays several full tournaments")
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	g, setupS, err := parseSweepGrid(5, nil, 0)
	if err != nil || setupS <= 0 {
		t.Fatalf("grid: %v (setup %v)", err, setupS)
	}
	ref, refBytes, err := sweepReference(ctx, g)
	if err != nil {
		t.Fatal(err)
	}
	clean := runSweep(ctx, g, ref, refBytes, 0, minBoards, nil, nil, nil)
	if clean.failed != 0 || len(clean.boards) != minBoards || clean.intervals == 0 {
		t.Fatalf("clean sweep: failed %d of %d, %d boards: %v", clean.failed, clean.cells, len(clean.boards), clean.problems)
	}
	bad := runSweep(ctx, g, ref, refBytes, 0, minBoards, nil, nil, func(b []byte) { b[len(b)/2] ^= 1 })
	if bad.failed != bad.cells || len(bad.problems) != minBoards {
		t.Errorf("corrupted leaderboards: failed %d of %d cells, problems %v", bad.failed, bad.cells, bad.problems)
	}
}
