package agg

import (
	"bytes"
	"math/rand"
	"testing"

	"phasemon/internal/dvfs"
	"phasemon/internal/phase"
	"phasemon/internal/telemetry"
	"phasemon/internal/wire"
)

// TestIngestBatchMatchesSingle feeds the same random outcome stream to
// two aggregators, one batch at a time through IngestBatchAt and one
// sample at a time through IngestAt, and requires byte-identical
// Rollup frames and identical self-telemetry. Instants step forward by
// random amounts across a 100 ns bucket ring of four slots — so
// batches land on bucket edges and reclaim unflushed slots — and now
// and then jump back past the ring, so whole batches arrive late.
// Flushes run at the same points on both sides.
func TestIngestBatchMatchesSingle(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	newAgg := func() (*Aggregator, *telemetry.Hub) {
		hub := telemetry.NewHub(6)
		return New(Config{NodeID: 5, Shards: 3, BucketLenNs: 100, NumBuckets: 4, Telemetry: hub}), hub
	}
	batched, bhub := newAgg()
	single, shub := newAgg()
	var bout, sout []byte
	collect := func(dst *[]byte) func(*wire.Rollup) {
		return func(r *wire.Rollup) { *dst = wire.AppendRollup(*dst, r) }
	}

	nowNs := int64(-250) // pre-epoch instants exercise floorDiv too
	var entries []Entry
	for iter := 0; iter < 3000; iter++ {
		switch r := rng.Intn(20); {
		case r == 0:
			nowNs -= 500 // past the four-slot ring: late
		case r < 12:
			nowNs += int64(rng.Intn(60))
		default:
			nowNs += int64(rng.Intn(250))
		}
		shard := rng.Intn(3)
		sessionID := uint64(rng.Intn(5)) // includes id 0
		latNs := int64(rng.Intn(3_000_000)) - 10
		entries = entries[:0]
		for n := rng.Intn(70); n > 0; n-- {
			entries = append(entries, Entry{
				Class:   phase.Class(rng.Intn(wire.RollupClasses + 1)),
				Setting: dvfs.Setting(rng.Intn(wire.RollupSettings+1) - 1),
				Outcome: Outcome(rng.Intn(int(OutcomeShed) + 2)),
			})
		}
		batched.IngestBatchAt(shard, nowNs, sessionID, entries, latNs)
		for _, e := range entries {
			single.IngestAt(shard, nowNs, sessionID, e.Class, e.Setting, e.Outcome, latNs)
		}
		if rng.Intn(25) == 0 {
			batched.FlushBefore(nowNs, collect(&bout))
			single.FlushBefore(nowNs, collect(&sout))
		}
	}
	batched.FlushAll(collect(&bout))
	single.FlushAll(collect(&sout))

	if len(sout) == 0 {
		t.Fatal("no rollups emitted")
	}
	if !bytes.Equal(bout, sout) {
		t.Errorf("batched ingest emitted %d rollup bytes differing from single ingest's %d", len(bout), len(sout))
	}
	for _, name := range []string{telemetry.MetricAggIngested, telemetry.MetricAggLateSamples,
		telemetry.MetricAggBucketsDropped, telemetry.MetricAggRollups} {
		b, s := bhub.Registry.Counter(name).Value(), shub.Registry.Counter(name).Value()
		if b != s {
			t.Errorf("%s: batched %d, single %d", name, b, s)
		}
		if s == 0 {
			t.Errorf("%s = 0: the feed never exercised it", name)
		}
	}
}

// TestIngestBatchZeroAlloc is the steady-state allocation witness for
// the batch ingest, across bucket windows and flushes.
func TestIngestBatchZeroAlloc(t *testing.T) {
	a := New(Config{Shards: 2, BucketLenNs: 1_000_000, NumBuckets: 8})
	entries := make([]Entry, 64)
	for i := range entries {
		entries[i] = Entry{Class: phase.ClassBalanced, Setting: dvfs.SpeedStep1200, Outcome: OutcomeHit}
	}
	nowNs := int64(0)
	step := func() {
		a.IngestBatchAt(1, nowNs, 7, entries, 250)
		a.FlushBefore(nowNs, func(*wire.Rollup) {})
		nowNs += 300_000
	}
	step() // first sight of the session grows its table
	if n := testing.AllocsPerRun(1000, step); n != 0 {
		t.Errorf("batch ingest allocs/op = %v, want 0", n)
	}
}
