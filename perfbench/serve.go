package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"phasemon/internal/dvfs"
	"phasemon/internal/governor"
	"phasemon/internal/phase"
	"phasemon/internal/phaseclient"
	"phasemon/internal/phased"
	"phasemon/internal/telemetry"
	"phasemon/internal/wcache"
	"phasemon/internal/wire"
	"phasemon/internal/workload"
)

// serveWorkload is one closed-loop traffic mix against an in-process
// phased server configured as cmd/phased configures it.
type serveWorkload struct {
	conns   int  // phaseclient connections
	perConn int  // sessions multiplexed on each connection
	window  int  // samples a session keeps outstanding
	batched bool // wire.FlagBatch framing at phaseclient.DefaultBatchSize
}

func (w serveWorkload) sessions() int { return w.conns * w.perConn }

const (
	serveSpec = "gpht_8_128"
	// traceLen is one session's counter stream. A session that reaches
	// its end drains and reopens under the same id (so it stays pinned
	// to the same server worker) and replays it; the fresh predictor
	// makes every lap checkable against one local replay.
	traceLen = 4096
	// setupTrials is how many times a run starts the server and opens
	// every session; setup_s is their median.
	setupTrials = 25
	// warmup runs traffic untimed so lazy set-up and pool growth finish
	// before the window opens.
	warmup = time.Second
	// spanStride traces one sample in this many per session.
	spanStride = 1024
	// slices splits the timed window; the throughput, CPU and latency
	// metrics are medians over slices, so a transient stall from outside
	// the process moves one slice, not the run's figure.
	slices = 20
	// rttKept bounds the latency reservoirs across all sessions and
	// slices.
	rttKept = 1 << 17
	// drainLimit bounds each wait at the end of a run: for sessions to
	// take their last answers, and for the server's Drain to reach them.
	drainLimit = 20 * time.Second
	// granularity is the sampling interval sessions announce.
	granularity = 100_000_000
)

// serveProfiles mixes the behaviour classes a fleet of monitored nodes
// shows: stable (crafty, swim), periodic (applu, equake), bursty
// (vortex, gcc) and drifting (mgrid's staircase, bzip2's stretching
// cycle). Session i replays profile i mod 8 under its own seed.
var serveProfiles = []string{
	"crafty_in", "applu_in", "vortex_lendian2", "mgrid_in",
	"swim_in", "equake_in", "gcc_200", "bzip2_program",
}

// sessionRef is one session's input stream and its expected answers.
type sessionRef struct {
	samples []wire.Sample
	want    []expect
}

// buildRefs materialises one trace per session through wcache and
// replays each through a local monitoring-only governed run with the
// served predictor spec; the run's log is the expected answer stream.
// hub observes the cache and the governor (their per-layer counters).
func buildRefs(ctx context.Context, profiles []string, n int, seed int64, hub *telemetry.Hub, tr *tracer, parent uint64) ([]sessionRef, error) {
	pol, err := governor.PolicyFromSpec(governor.MonitorPrefix + serveSpec)
	if err != nil {
		return nil, err
	}
	trans, err := dvfs.Identity(dvfs.PentiumM(), phase.Default().NumPhases())
	if err != nil {
		return nil, err
	}
	numPhases := phase.Default().NumPhases()
	cache := wcache.New(wcache.Config{Telemetry: hub})
	refs := make([]sessionRef, n)
	for i := range refs {
		prof, err := workload.ByName(profiles[i%len(profiles)])
		if err != nil {
			return nil, err
		}
		sp := tr.begin("wcache.Get", parent)
		trace := cache.Get(prof, workload.Params{Seed: seed*1009 + int64(i) + 1, Intervals: traceLen})
		sp.end(1)
		sp = tr.begin("governor.RunContext", parent)
		res, err := governor.RunContext(ctx, trace.Generator(), pol, governor.Config{Telemetry: hub})
		sp.end(int64(trace.Len()))
		if err != nil {
			return nil, fmt.Errorf("reference run %d: %w", i, err)
		}
		ref := sessionRef{samples: make([]wire.Sample, len(res.Log)), want: make([]expect, len(res.Log))}
		for j, e := range res.Log {
			ref.samples[j] = wire.Sample{Seq: uint64(j), Uops: e.Uops, MemTx: e.MemTx, Cycles: e.Cycles}
			ref.want[j] = expect{
				actual:  uint8(e.Actual),
				next:    uint8(e.Predicted),
				class:   uint8(phase.ClassOf(e.Predicted, numPhases)),
				setting: uint8(trans.Setting(e.Predicted)),
			}
		}
		refs[i] = ref
	}
	return refs, nil
}

// sessStats is one session goroutine's tally. answered is read by the
// main goroutine at the window edges; everything else is read only
// after the goroutine has exited.
type sessStats struct {
	answered   atomic.Uint64
	sent       uint64
	mismatched uint64
	drained    bool
	err        error
	rtt        []*reservoir // µs per slice, samples answered inside the window
	laps       []float64    // s, whole traces served inside the window
}

// serveRun is one server, its clients and their sessions.
type serveRun struct {
	w    serveWorkload
	refs []sessionRef
	tr   *tracer
	// mutate, when set, rewrites each received prediction before it is
	// checked; tests use it to prove a corrupted answer fails the run.
	mutate func(session int, p *wire.Prediction)

	hub     *telemetry.Hub
	srv     *phased.Server
	clients []*phaseclient.Client
	sess    []*phaseclient.Session
	setups  []float64 // s

	stop  atomic.Bool
	slot  atomic.Int32 // the window slice under way; -1 outside the window
	stats []sessStats
	epoch time.Time
}

// serveResult is what one serving run measured.
type serveResult struct {
	counts   serveCounts
	setupS   float64
	peakMB   float64 // process peak RSS when the run ended
	answered uint64  // inside the window
	win      window
	rtts     []float64   // µs, ascending, the whole window
	slices   []sliceStat // per window slice
	laps     []float64   // s
	h0, h1   hubSnap
	shutdown time.Duration
}

func (r *serveRun) open(ctx context.Context, cl *phaseclient.Client, i int, parent uint64) (*phaseclient.Session, error) {
	open := cl.Open
	if r.w.batched {
		open = cl.OpenBatched
	}
	sp := r.tr.begin("phaseclient.Open", parent)
	sess, _, err := open(ctx, uint64(i+1), serveSpec, granularity)
	sp.end(1)
	return sess, err
}

// setup starts the server and opens every session; the elapsed time is
// one setup_s observation.
func (r *serveRun) setup(ctx context.Context, parent uint64) error {
	start := time.Now()
	sp := r.tr.begin("phased.Start", parent)
	r.hub = telemetry.NewHub(phase.Default().NumPhases())
	srv, err := phased.New(phased.Config{Telemetry: r.hub})
	if err != nil {
		return err
	}
	addr, err := srv.Start("127.0.0.1:0")
	sp.end(1)
	if err != nil {
		return err
	}
	r.srv = srv
	r.clients = make([]*phaseclient.Client, r.w.conns)
	for c := range r.clients {
		r.clients[c] = phaseclient.New(phaseclient.Config{Addr: addr.String(), MaxAttempts: 3})
	}
	r.sess = make([]*phaseclient.Session, r.w.sessions())
	for i := range r.sess {
		if r.sess[i], err = r.open(ctx, r.clients[i%r.w.conns], i, parent); err != nil {
			return fmt.Errorf("open session %d: %w", i+1, err)
		}
	}
	r.setups = append(r.setups, time.Since(start).Seconds())
	return nil
}

// teardown shuts the server down and closes the clients.
func (r *serveRun) teardown(parent uint64) (time.Duration, error) {
	var err error
	var d time.Duration
	if r.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		sp := r.tr.begin("phased.Shutdown", parent)
		start := time.Now()
		err = r.srv.Shutdown(ctx)
		d = time.Since(start)
		sp.end(1)
		cancel()
	}
	for _, c := range r.clients {
		if c != nil {
			c.Close()
		}
	}
	return d, err
}

// runServe runs one serving measurement: setupTrials set-ups (the last
// one kept), warmup, a timed window of the given length, then a drain
// through Shutdown and the output checks.
func runServe(ctx context.Context, w serveWorkload, refs []sessionRef, seconds time.Duration, tr *tracer, mutate func(int, *wire.Prediction)) (*serveResult, error) {
	root := tr.begin("serve", 0)
	defer root.end(1)
	r := &serveRun{w: w, refs: refs, tr: tr, mutate: mutate, epoch: time.Now()}
	for k := 0; k < setupTrials-1; k++ {
		if err := r.setup(ctx, root.id); err != nil {
			r.teardown(root.id)
			return nil, err
		}
		if _, err := r.teardown(root.id); err != nil {
			return nil, fmt.Errorf("set-up trial shutdown: %w", err)
		}
	}
	if err := r.setup(ctx, root.id); err != nil {
		r.teardown(root.id)
		return nil, err
	}

	res := &serveResult{setupS: median(r.setups)}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	r.stats = make([]sessStats, len(r.sess))
	r.slot.Store(-1)
	var done, quiesced sync.WaitGroup
	for i := range r.sess {
		st := &r.stats[i]
		st.rtt = make([]*reservoir, slices)
		for k := range st.rtt {
			st.rtt[k] = newReservoir(rttKept/(slices*len(r.sess)), uint64(i*slices+k+1))
		}
		done.Add(1)
		quiesced.Add(1)
		go r.session(ctx, i, &done, &quiesced)
	}

	sleepCtx(ctx, warmup)
	a0 := r.answered()
	p0, h0 := takeSnap(), snapHub(r.hub)
	r.slot.Store(0)
	prev := sliceEdge{p0.wall, p0.cpu, a0}
	for k := 1; k <= slices; k++ {
		sleepCtx(ctx, time.Until(p0.wall.Add(seconds*time.Duration(k)/slices)))
		e := sliceEdge{time.Now(), cpuTime(), r.answered()}
		if k < slices {
			r.slot.Store(int32(k))
		} else {
			r.slot.Store(-1)
		}
		res.slices = append(res.slices, sliceStat{wall: e.wall.Sub(prev.wall), cpu: e.cpu - prev.cpu, answered: e.answered - prev.answered})
		prev = e
	}
	p1, h1 := takeSnap(), snapHub(r.hub)
	a1 := r.answered()
	r.stop.Store(true)

	// A session still waiting past drainLimit is cancelled: its
	// in-flight samples count as unanswered instead of hanging the run.
	var errs []error
	if err := waitFor(&quiesced, drainLimit); err != nil {
		errs = append(errs, fmt.Errorf("sessions did not quiesce: %w", err))
		cancel()
	}
	shutdown, err := r.teardown(root.id)
	if err != nil {
		errs = append(errs, fmt.Errorf("shutdown: %w", err))
	}
	if err := waitFor(&done, drainLimit); err != nil {
		errs = append(errs, fmt.Errorf("sessions did not finish: %w", err))
		cancel()
		done.Wait()
	}

	res.answered, res.win, res.h0, res.h1, res.shutdown = a1-a0, p0.to(p1), h0, h1, shutdown
	final := snapHub(r.hub)
	c := serveCounts{
		shed: final.dropped, ingested: final.aggIngested, protoErrs: final.protoErrs,
		sessions: len(r.stats), errs: errs,
	}
	for i := range r.stats {
		st := &r.stats[i]
		c.sent += st.sent
		c.answered += st.answered.Load()
		c.mismatched += st.mismatched
		if st.drained {
			c.drained++
		}
		if st.err != nil {
			c.errs = append(c.errs, fmt.Errorf("session %d: %w", i+1, st.err))
		}
		for k, rv := range st.rtt {
			res.slices[k].rtts = append(res.slices[k].rtts, rv.buf...)
			res.rtts = append(res.rtts, rv.buf...)
		}
		res.laps = append(res.laps, st.laps...)
	}
	res.counts = c
	res.peakMB = peakRSSMB()
	res.rtts = sorted(res.rtts)
	for k := range res.slices {
		res.slices[k].rtts = sorted(res.slices[k].rtts)
	}
	return res, nil
}

func (r *serveRun) answered() uint64 {
	var n uint64
	for i := range r.stats {
		n += r.stats[i].answered.Load()
	}
	return n
}

func (r *serveRun) since() int64 { return int64(time.Since(r.epoch)) }

// session drives one closed-loop session: keep up to window samples
// outstanding, check every answer against the local replay, and replay
// the trace lap after lap until the run stops; then wait for the
// server-initiated Drain that Shutdown sends. Every blocking call
// carries ctx, whose deadline turns a hang into a recorded failure.
func (r *serveRun) session(ctx context.Context, i int, done, quiesced *sync.WaitGroup) {
	defer done.Done()
	quiesce := sync.OnceFunc(quiesced.Done)
	defer quiesce()
	st := &r.stats[i]
	ref := &r.refs[i]
	sess, cl := r.sess[i], r.clients[i%r.w.conns]
	n := len(ref.samples)
	sentAt := make([]int64, n)
	var roots map[int]spanHandle
	if r.tr != nil {
		roots = make(map[int]spanHandle)
	}
	lastSeq := wire.NoSamples
	for {
		lapStart, lapTimed := time.Now(), r.slot.Load() >= 0
		next, out := 0, 0
		for {
			for out < r.w.window && next < n && !r.stop.Load() {
				traced := roots != nil && next%spanStride == 0
				var sp spanHandle
				if traced {
					root := r.tr.begin("loadgen.sample", 0)
					roots[next] = root
					sp = r.tr.begin("phaseclient.Send", root.id)
				}
				sentAt[next] = r.since()
				if err := sess.Send(ref.samples[next]); err != nil {
					st.err = fmt.Errorf("send seq %d: %w", next, err)
					return
				}
				if traced {
					sp.end(1)
				}
				st.sent++
				next++
				out++
			}
			if out == 0 {
				break
			}
			seq := next - out
			root, traced := roots[seq]
			var sp spanHandle
			if traced {
				sp = r.tr.begin("phaseclient.Recv", root.id)
			}
			p, err := sess.Recv(ctx)
			if err != nil {
				st.err = fmt.Errorf("recv seq %d: %w", seq, err)
				return
			}
			now := r.since()
			if traced {
				sp.end(1)
				root.end(1)
				delete(roots, seq)
			}
			out--
			st.answered.Add(1)
			if r.mutate != nil {
				// Through a copy: passing &p to a func value would move
				// every answer to the heap, an allocation the program
				// under test does not make.
				q := p
				r.mutate(i, &q)
				p = q
			}
			if !verifyPrediction(&p, uint64(seq), ref.want[seq]) {
				st.mismatched++
			}
			if k := r.slot.Load(); k >= 0 {
				st.rtt[k].add(float64(now-sentAt[seq]) / 1e3)
			}
		}
		if next == 0 {
			break
		}
		lastSeq = uint64(next - 1)
		if next < n {
			break
		}
		if lapTimed && r.slot.Load() >= 0 {
			st.laps = append(st.laps, time.Since(lapStart).Seconds())
		}
		if r.stop.Load() {
			break
		}
		sp := r.tr.begin("phaseclient.Drain", 0)
		d, err := sess.Drain(ctx)
		sp.end(1)
		if err != nil {
			st.err = fmt.Errorf("lap drain: %w", err)
			return
		}
		if d.LastSeq != lastSeq {
			st.err = fmt.Errorf("lap drain LastSeq %d, want %d", d.LastSeq, lastSeq)
			return
		}
		lastSeq = wire.NoSamples
		if sess, err = r.open(ctx, cl, i, 0); err != nil {
			st.err = fmt.Errorf("reopen: %w", err)
			return
		}
	}
	quiesce()
	select {
	case d := <-sess.Drained():
		if d.LastSeq != lastSeq {
			st.err = fmt.Errorf("server drain LastSeq %d, want %d", d.LastSeq, lastSeq)
			return
		}
		st.drained = true
	case <-ctx.Done():
		st.err = fmt.Errorf("no server drain: %w", ctx.Err())
	}
}

// sliceEdge is the window's state at a slice boundary.
type sliceEdge struct {
	wall     time.Time
	cpu      time.Duration
	answered uint64
}

// sliceStat is what one slice of the window measured.
type sliceStat struct {
	wall, cpu time.Duration
	answered  uint64
	rtts      []float64 // µs, ascending
}

// hubSnap is the phased hub's counters at one instant.
type hubSnap struct {
	framesIn, framesOut, dropped, protoErrs uint64
	aggIngested, late, bucketsDropped       uint64
	gphtHits, gphtMisses, steps, mispred    uint64
	frameSec, flushFrames, flushSec         telemetry.HistogramSnapshot
}

func snapHub(h *telemetry.Hub) hubSnap {
	return hubSnap{
		framesIn:       h.PhasedFramesIn.Value(),
		framesOut:      h.PhasedFramesOut.Value(),
		dropped:        h.PhasedDroppedSamples.Value(),
		protoErrs:      h.PhasedProtocolErrors.Value(),
		aggIngested:    h.Registry.Counter(telemetry.MetricAggIngested).Value(),
		late:           h.Registry.Counter(telemetry.MetricAggLateSamples).Value(),
		bucketsDropped: h.Registry.Counter(telemetry.MetricAggBucketsDropped).Value(),
		gphtHits:       h.GPHTHits.Value(),
		gphtMisses:     h.GPHTMisses.Value(),
		steps:          h.Steps.Value(),
		mispred:        h.Mispredictions.Value(),
		frameSec:       h.PhasedFrameSeconds.Snapshot(),
		flushFrames:    h.PhasedFlushFrames.Snapshot(),
		flushSec:       h.PhasedFlushSeconds.Snapshot(),
	}
}

// histDelta is b minus a, bucket by bucket.
func histDelta(a, b telemetry.HistogramSnapshot) telemetry.HistogramSnapshot {
	d := telemetry.HistogramSnapshot{Bounds: b.Bounds, Counts: make([]uint64, len(b.Counts)), Count: b.Count - a.Count, Sum: b.Sum - a.Sum}
	for i := range b.Counts {
		d.Counts[i] = b.Counts[i]
		if i < len(a.Counts) {
			d.Counts[i] -= a.Counts[i]
		}
	}
	return d
}

// sleepCtx sleeps for d or until ctx ends.
func sleepCtx(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// waitFor waits for wg for at most d. On a timeout the waiting
// goroutine stays until wg completes, which the caller ensures by
// cancelling the context every counted goroutine blocks on.
func waitFor(wg *sync.WaitGroup, d time.Duration) error {
	ch := make(chan struct{})
	go func() {
		wg.Wait()
		close(ch)
	}()
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ch:
		return nil
	case <-t.C:
		return fmt.Errorf("still waiting after %v", d)
	}
}
