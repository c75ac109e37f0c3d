package phaseclient

import (
	"testing"

	"phasemon/internal/wire"
)

// replayReader hands the same encoded frames back forever, so the
// decoder can run an unbounded steady state without a live socket.
type replayReader struct {
	frames []byte
	off    int
}

func (r *replayReader) Read(p []byte) (int, error) {
	if r.off == len(r.frames) {
		r.off = 0
	}
	n := copy(p, r.frames[r.off:])
	r.off += n
	return n, nil
}

// TestDemuxZeroAlloc proves the client's frame demux — stream decode,
// payload parse, route to the session's channel — allocates nothing in
// steady state, for the per-sample Prediction path, the per-bucket
// Rollup path, and a prediction batch holding one session's run. The decoder's frame buffer and the session
// channels are the only storage, and both are reused across frames.
func TestDemuxZeroAlloc(t *testing.T) {
	c := New(Config{Addr: "127.0.0.1:0", Window: 1})
	s := &Session{
		c:     c,
		id:    7,
		acks:  make(chan wire.Ack, 1),
		preds: make(chan wire.Prediction, 3),
		drain: make(chan wire.Drain, 1),
		errs:  make(chan error, 1),
		done:  make(chan struct{}),
	}
	rollups := make(chan wire.Rollup, 1)
	c.mu.Lock()
	c.sessions[s.id] = s
	c.rollupSess, c.rollupCh = s, rollups
	c.mu.Unlock()

	p := wire.Prediction{SessionID: 7, Seq: 1, Actual: 2, Next: 3, Class: 1, Setting: 2}
	r := wire.Rollup{NodeID: 42, Shard: 1, BucketStart: 1e9, BucketLenNs: 1e9}
	frames := wire.AppendPrediction(nil, &p)
	frames = wire.AppendRollup(frames, &r)
	frames, err := wire.AppendBatchPredictions(frames, []wire.Prediction{p, p})
	if err != nil {
		t.Fatal(err)
	}
	dec := wire.NewDecoder(&replayReader{frames: frames})

	step := func() {
		for i := 0; i < 3; i++ {
			kind, payload, err := dec.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !c.demux(nil, kind, payload) {
				t.Fatalf("demux treated %v as fatal", kind)
			}
		}
		for i := 0; i < 3; i++ {
			<-s.preds
		}
		<-rollups
	}
	// Warm the decoder's reusable frame buffer (rollups are larger than
	// its initial capacity) before measuring.
	step()

	if n := testing.AllocsPerRun(1000, step); n != 0 {
		t.Errorf("demux allocs/op = %v, want 0", n)
	}
}
