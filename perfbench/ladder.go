package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"phasemon/internal/agg"
	"phasemon/internal/core"
	"phasemon/internal/dvfs"
	"phasemon/internal/governor"
	"phasemon/internal/phase"
	"phasemon/internal/phaseclient"
	"phasemon/internal/telemetry"
	"phasemon/internal/wcache"
	"phasemon/internal/wire"
	"phasemon/internal/workload"
)

const (
	// ladderReps is how many passes each layer timing makes; it reports
	// the median pass.
	ladderReps = 5
	// ladderSessions caps the recorded stream the ladder replays, so
	// both serve workloads time their layers on the same 16 traces.
	ladderSessions = 16
)

// coreSpecs are the predictor specs timed one by one: the sweep's zoo
// plus the spec the serve workloads negotiate.
func coreSpecs() []string { return append(sweepSpecs(), serveSpec) }

// ladder times single layers through their public functions on a
// workload's recorded stream — the counters its sessions send (or the
// sweep's traces) and the answers the local replay gave — each inside
// a span. Rungs are cumulative, from the predictor up to the wire.
type ladder struct {
	refs    []sessionRef
	batched bool
	tr      *tracer
	parent  uint64
	cls     phase.Classifier
	trans   *dvfs.Translation
	n       int // samples in the stream
}

func newLadder(refs []sessionRef, batched bool, tr *tracer, parent uint64) (*ladder, error) {
	cls := phase.Default()
	trans, err := dvfs.Identity(dvfs.PentiumM(), cls.NumPhases())
	if err != nil {
		return nil, err
	}
	l := &ladder{refs: refs, batched: batched, tr: tr, parent: parent, cls: cls, trans: trans}
	for _, r := range refs {
		l.n += len(r.samples)
	}
	return l, nil
}

// timed runs pass ladderReps times, each inside a span named name
// over l.n operations, and returns the median ns per operation. prep
// runs untimed before each pass.
func (l *ladder) timed(name string, prep func(), pass func()) float64 {
	ns := make([]float64, 0, ladderReps)
	for k := 0; k < ladderReps; k++ {
		if prep != nil {
			prep()
		}
		sp := l.tr.begin(name, l.parent)
		start := time.Now()
		pass()
		d := time.Since(start)
		sp.end(int64(l.n))
		ns = append(ns, float64(d.Nanoseconds())/float64(l.n))
	}
	return median(ns)
}

// sample is the classifier input the server derives from wire
// counters; ratio's zero guard is phased's (and the kernel module's).
func sample(s *wire.Sample) phase.Sample {
	return phase.Sample{MemPerUop: ratio(float64(s.MemTx), float64(s.Uops)), UPC: ratio(float64(s.Uops), float64(s.Cycles))}
}

// observeNs times spec's Observe alone over pre-classified intervals.
func (l *ladder) observeNs(spec string) (float64, error) {
	obs := make([][]core.Observation, len(l.refs))
	for i, r := range l.refs {
		obs[i] = make([]core.Observation, len(r.samples))
		for j := range r.samples {
			s := sample(&r.samples[j])
			obs[i][j] = core.Observation{Sample: s, Phase: l.cls.Classify(s)}
		}
	}
	preds := make([]core.Predictor, len(l.refs))
	var err error
	prep := func() {
		for i := range preds {
			var p core.StatefulPredictor
			if p, err = core.NewPredictorFromSpec(spec, core.SpecEnv{Classifier: l.cls}); err != nil {
				return
			}
			preds[i] = p
		}
	}
	if prep(); err != nil {
		return 0, err
	}
	return l.timed("core.Predictor.Observe."+spec, prep, func() {
		for i, p := range preds {
			for _, o := range obs[i] {
				p.Observe(o)
			}
		}
	}), err
}

// monitors builds one fresh monitor per session for spec, observed by
// hub when non-nil.
func (l *ladder) monitors(spec string, hub *telemetry.Hub) ([]*core.Monitor, error) {
	mons := make([]*core.Monitor, len(l.refs))
	for i := range mons {
		p, err := core.NewPredictorFromSpec(spec, core.SpecEnv{Classifier: l.cls})
		if err != nil {
			return nil, err
		}
		var opts []core.Option
		if hub != nil {
			opts = append(opts, core.WithTelemetry(hub))
		}
		if mons[i], err = core.NewMonitor(l.cls, p, opts...); err != nil {
			return nil, err
		}
	}
	return mons, nil
}

// stepNs times Monitor.Step (classify, score, Observe) for spec; hub,
// when set, observes the monitors as phased's do.
func (l *ladder) stepNs(name, spec string, hub *telemetry.Hub) (float64, error) {
	var mons []*core.Monitor
	var err error
	prep := func() { mons, err = l.monitors(spec, hub) }
	if prep(); err != nil {
		return 0, err
	}
	return l.timed(name, prep, func() {
		for i, m := range mons {
			r := &l.refs[i]
			for j := range r.samples {
				m.Step(sample(&r.samples[j]))
			}
		}
	}), err
}

// served is the per-sample work phased's worker does around the
// monitor: step, build the prediction, read the clock twice and ingest
// the outcome into the rollup aggregator. It mirrors the serving path
// so the rungs above Monitor.Step add exactly one layer each.
type served struct {
	l    *ladder
	mons []*core.Monitor
	agg  *agg.Aggregator
}

func (l *ladder) newServed() (*served, error) {
	mons, err := l.monitors(serveSpec, telemetry.NewHub(l.cls.NumPhases()))
	if err != nil {
		return nil, err
	}
	return &served{l: l, mons: mons, agg: agg.New(agg.Config{Shards: 4})}, nil
}

func (s *served) step(i int, smp *wire.Sample) wire.Prediction {
	m := s.mons[i]
	start := time.Now()
	processed := m.Steps() > 0
	pending := m.LastPrediction()
	actual, next := m.Step(sample(smp))
	p := wire.Prediction{
		SessionID: uint64(i + 1), Seq: smp.Seq, Actual: uint8(actual), Next: uint8(next),
		Class:   uint8(phase.ClassOf(next, s.l.cls.NumPhases())),
		Setting: uint8(s.l.trans.Setting(next)),
	}
	elapsed := time.Since(start)
	outcome := agg.OutcomeUnscored
	if processed {
		outcome = agg.OutcomeMiss
		if pending == actual {
			outcome = agg.OutcomeHit
		}
	}
	s.agg.IngestAt(i%s.agg.Shards(), start.UnixNano(), p.SessionID, phase.Class(p.Class), dvfs.Setting(p.Setting), outcome, elapsed.Nanoseconds())
	return p
}

// servedNs times the served step.
func (l *ladder) servedNs(name string) (float64, error) {
	var s *served
	var err error
	prep := func() { s, err = l.newServed() }
	if prep(); err != nil {
		return 0, err
	}
	return l.timed(name, prep, func() {
		for i := range l.refs {
			r := &l.refs[i]
			for j := range r.samples {
				s.step(i, &r.samples[j])
			}
		}
	}), err
}

// predictions is session i's reference answer stream as the server
// frames it.
func (l *ladder) predictions(i int) []wire.Prediction {
	r := &l.refs[i]
	out := make([]wire.Prediction, len(r.want))
	for j, w := range r.want {
		out[j] = wire.Prediction{SessionID: uint64(i + 1), Seq: uint64(j), Actual: w.actual, Next: w.next, Class: w.class, Setting: w.setting}
	}
	return out
}

// chunks splits n records into batches of phaseclient.DefaultBatchSize.
func chunks(n int, fn func(lo, hi int)) {
	for lo := 0; lo < n; lo += phaseclient.DefaultBatchSize {
		fn(lo, min(lo+phaseclient.DefaultBatchSize, n))
	}
}

// encode appends session i's samples and predictions in one framing.
func (l *ladder) encode(dstIn, dstOut []byte, batched bool, i int, preds []wire.Prediction) ([]byte, []byte, error) {
	r := &l.refs[i]
	var err error
	if batched {
		chunks(len(r.samples), func(lo, hi int) {
			if err == nil {
				dstIn, err = wire.AppendBatchSamples(dstIn, r.samples[lo:hi])
			}
			if err == nil {
				dstOut, err = wire.AppendBatchPredictions(dstOut, preds[lo:hi])
			}
		})
		return dstIn, dstOut, err
	}
	for j := range r.samples {
		dstIn = wire.AppendSample(dstIn, &r.samples[j])
		dstOut = wire.AppendPrediction(dstOut, &preds[j])
	}
	return dstIn, dstOut, nil
}

// decode reads every frame of a stream the way phased and phaseclient
// do (wire.Decoder, then the record decoders) and returns the records.
func decode(stream []byte) (int, error) {
	d := wire.NewDecoder(bytes.NewReader(stream))
	n := 0
	for {
		kind, payload, err := d.Next()
		if err != nil {
			if n > 0 && errors.Is(err, io.EOF) {
				return n, nil
			}
			return n, err
		}
		switch kind {
		case wire.KindSample:
			var s wire.Sample
			err = wire.DecodeSample(payload, &s)
			n++
		case wire.KindPrediction:
			var p wire.Prediction
			err = wire.DecodePrediction(payload, &p)
			n++
		case wire.KindBatch:
			elem, k, recs, derr := wire.DecodeBatch(payload)
			if derr != nil {
				return n, derr
			}
			for j := 0; j < k && err == nil; j++ {
				if elem == wire.KindSample {
					var s wire.Sample
					err = wire.DecodeSample(recs[j*wire.SampleRecordSize:(j+1)*wire.SampleRecordSize], &s)
				} else {
					var p wire.Prediction
					err = wire.DecodePrediction(recs[j*wire.PredictionRecordSize:(j+1)*wire.PredictionRecordSize], &p)
				}
			}
			n += k
		default:
			err = fmt.Errorf("unexpected %s frame", kind)
		}
		if err != nil {
			return n, err
		}
	}
}

// codec times one framing's encode (samples and predictions) and
// decode, per sample, and measures its bytes per sample each way.
type codec struct {
	encodeNs, decodeNs float64
	bytesIn, bytesOut  float64
}

func (l *ladder) codec(batched bool) (codec, error) {
	kind := "frame"
	if batched {
		kind = "batch"
	}
	preds := make([][]wire.Prediction, len(l.refs))
	for i := range l.refs {
		preds[i] = l.predictions(i)
	}
	var in, out []byte
	var err error
	var c codec
	c.encodeNs = l.timed("wire.Append."+kind, nil, func() {
		for i := range l.refs {
			var ein, eout []byte
			if ein, eout, err = l.encode(in[:0], out[:0], batched, i, preds[i]); err != nil {
				return
			}
			in, out = ein, eout
		}
	})
	if err != nil {
		return c, err
	}
	var streamIn, streamOut []byte
	for i := range l.refs {
		if streamIn, streamOut, err = l.encode(streamIn, streamOut, batched, i, preds[i]); err != nil {
			return c, err
		}
	}
	c.bytesIn = float64(len(streamIn)) / float64(l.n)
	c.bytesOut = float64(len(streamOut)) / float64(l.n)
	c.decodeNs = l.timed("wire.Decoder."+kind, nil, func() {
		var k, m int
		if k, err = decode(streamIn); err == nil {
			m, err = decode(streamOut)
		}
		if err == nil && (k != l.n || m != l.n) {
			err = fmt.Errorf("%s decode saw %d samples and %d predictions, want %d", kind, k, m, l.n)
		}
	})
	return c, err
}

// wireRungNs is the served step with agg ingest plus the workload's
// framing both ways: encode the samples, decode them, step, encode the
// predictions, decode them.
func (l *ladder) wireRungNs() (float64, error) {
	var s *served
	var err error
	prep := func() { s, err = l.newServed() }
	if prep(); err != nil {
		return 0, err
	}
	var in, out []byte
	preds := make([]wire.Prediction, 0, phaseclient.DefaultBatchSize)
	var smp wire.Sample
	var p wire.Prediction
	rd := bytes.NewReader(nil)
	dec := wire.NewDecoder(rd)
	// next decodes the one frame in buf; the encoders just built it, so
	// a failure is a codec bug and fails the rung.
	next := func(buf []byte) []byte {
		rd.Reset(buf)
		_, payload, derr := dec.Next()
		if derr != nil && err == nil {
			err = derr
		}
		return payload
	}
	ns := l.timed("ladder.wire", prep, func() {
		for i := range l.refs {
			r := &l.refs[i]
			if !l.batched {
				for j := range r.samples {
					in = wire.AppendSample(in[:0], &r.samples[j])
					_ = wire.DecodeSample(next(in), &smp)
					pr := s.step(i, &smp)
					out = wire.AppendPrediction(out[:0], &pr)
					_ = wire.DecodePrediction(next(out), &p)
				}
				continue
			}
			chunks(len(r.samples), func(lo, hi int) {
				var eerr error
				if in, eerr = wire.AppendBatchSamples(in[:0], r.samples[lo:hi]); eerr != nil {
					err = eerr
					return
				}
				_, k, recs, _ := wire.DecodeBatch(next(in))
				preds = preds[:0]
				for j := 0; j < k; j++ {
					_ = wire.DecodeSample(recs[j*wire.SampleRecordSize:(j+1)*wire.SampleRecordSize], &smp)
					preds = append(preds, s.step(i, &smp))
				}
				if out, eerr = wire.AppendBatchPredictions(out[:0], preds); eerr != nil {
					err = eerr
					return
				}
				_, k, recs, _ = wire.DecodeBatch(next(out))
				for j := 0; j < k; j++ {
					_ = wire.DecodePrediction(recs[j*wire.PredictionRecordSize:(j+1)*wire.PredictionRecordSize], &p)
				}
			})
		}
	})
	return ns, err
}

// ingestNs times agg.IngestAt alone on the recorded outcome stream:
// each session's answers scored by the monitor's rule, stamped on a
// synthetic clock advancing 1 µs per sample.
func (l *ladder) ingestNs() float64 {
	type ev struct {
		class   phase.Class
		setting dvfs.Setting
		outcome agg.Outcome
	}
	evs := make([][]ev, len(l.refs))
	for i, r := range l.refs {
		evs[i] = make([]ev, len(r.want))
		for j, w := range r.want {
			o := agg.OutcomeUnscored
			if j > 0 {
				o = agg.OutcomeMiss
				if r.want[j-1].next == w.actual {
					o = agg.OutcomeHit
				}
			}
			evs[i][j] = ev{phase.Class(w.class), dvfs.Setting(w.setting), o}
		}
	}
	var a *agg.Aggregator
	base := time.Now().UnixNano()
	return l.timed("agg.Aggregator.IngestAt", func() { a = agg.New(agg.Config{Shards: 4}) }, func() {
		now := base
		for i, es := range evs {
			for _, e := range es {
				now += 1000
				a.IngestAt(i%4, now, uint64(i+1), e.class, e.setting, e.outcome, 5000)
			}
		}
	})
}

// governorNs times governor.RunContext per interval for each policy
// on one cached trace (the Q3 running example, applu).
func governorNs(ctx context.Context, seed int64, tr *tracer, parent uint64) (map[string]float64, error) {
	prof, err := workload.ByName("applu_in")
	if err != nil {
		return nil, err
	}
	trace := wcache.New(wcache.Config{}).Get(prof, workload.Params{Seed: seed + 1, Intervals: sweepIntervals})
	out := make(map[string]float64)
	for _, spec := range append([]string{"baseline"}, coreSpecs()...) {
		pol, err := governor.PolicyFromSpec(spec)
		if err != nil {
			return nil, err
		}
		ns := make([]float64, 0, ladderReps)
		for k := 0; k < ladderReps; k++ {
			sp := tr.begin("governor.RunContext."+spec, parent)
			start := time.Now()
			_, err := governor.RunContext(ctx, trace.Generator(), pol, governor.Config{})
			d := time.Since(start)
			sp.end(int64(trace.Len()))
			if err != nil {
				return nil, err
			}
			ns = append(ns, float64(d.Nanoseconds())/float64(trace.Len()))
		}
		out[spec] = median(ns)
	}
	return out, nil
}

// materializeMs times a cold wcache.Get (a fresh cache each time) of
// every sweep profile and returns the median in ms.
func materializeMs(seed int64, tr *tracer, parent uint64) (float64, error) {
	var ms []float64
	for _, name := range sweepProfiles {
		prof, err := workload.ByName(name)
		if err != nil {
			return 0, err
		}
		for k := 0; k < ladderReps; k++ {
			c := wcache.New(wcache.Config{})
			sp := tr.begin("wcache.Get.cold", parent)
			start := time.Now()
			c.Get(prof, workload.Params{Seed: seed + 1, Intervals: sweepIntervals})
			d := time.Since(start)
			sp.end(1)
			ms = append(ms, float64(d.Nanoseconds())/1e6)
		}
	}
	return median(ms), nil
}
