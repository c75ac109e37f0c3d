package phased

import (
	"net"
	"sync"
	"time"

	"phasemon/internal/wire"
)

// serverConn wraps one accepted connection. Frame writes from the
// reader goroutine (Acks, Errors) and the workers (Predictions,
// Drains) interleave on it, serialized by wmu; the write buffers are
// reused across frames so the steady-state write path allocates
// nothing.
//
// On a connection that negotiated FlagBatch, predictions are not
// written one frame at a time: they accumulate in preds and flush as
// one KindBatch frame when the batch reaches the server's size
// threshold, when a worker that buffered into it runs out of work
// (the idle flush), when the FlushInterval timer expires (the
// backstop for workers that never go idle), or when a control frame
// (Ack, Drain, Snapshot, Error, Rollup) needs the wire — the control
// write first flushes the pending batch in the same writev, so frame
// order on the wire matches write order. TCP_NODELAY is set
// on every accepted connection: the coalescer replaces Nagle's
// algorithm with an explicit, bounded latency budget instead of
// stacking the kernel's delay on top of ours.
type serverConn struct {
	srv *Server
	c   net.Conn

	wmu sync.Mutex
	// wbuf holds the pending control frame.
	wbuf []byte // guarded by wmu

	// Write coalescer state, all under wmu. The buffers are allocated
	// once in enableBatch (cold) and reused by every flush; preds is
	// the pending reply batch, bbuf its frame encode buffer, vecs the
	// reusable writev vector, firstPendNs when preds[0] was buffered.
	batched     bool              // guarded by wmu
	preds       []wire.Prediction // guarded by wmu
	bbuf        []byte            // guarded by wmu
	vecs        net.Buffers       // guarded by wmu
	wvec        net.Buffers       // guarded by wmu
	flushTimer  *time.Timer       // guarded by wmu
	firstPendNs int64             // guarded by wmu

	smu      sync.Mutex
	sessions []*session // guarded by smu

	// idleMarks[i] records that worker i has the connection on its
	// idle-flush list; element i is read and written only by worker
	// i's run goroutine. Sized to the pool when the connection is
	// accepted.
	idleMarks []bool

	// Reader-goroutine scratch for one inbound batch, reused across
	// frames: the decoded samples, their resolved sessions, and each
	// record's worker index (-1 once enqueued or rejected).
	rsmp  []wire.Sample // owned by the reader goroutine
	rsess []*session    // owned by the reader goroutine
	rwork []int         // owned by the reader goroutine

	closeOnce sync.Once
}

// ipKey is the per-IP accounting key (host without port).
func (sc *serverConn) ipKey() string {
	host, _, err := net.SplitHostPort(sc.c.RemoteAddr().String())
	if err != nil {
		return sc.c.RemoteAddr().String()
	}
	return host
}

func (sc *serverConn) close() {
	sc.closeOnce.Do(func() {
		// Close the socket first: it unblocks any writer stuck in a
		// Write under wmu, so the lock below cannot deadlock behind a
		// stalled peer.
		_ = sc.c.Close()
		sc.wmu.Lock()
		if sc.flushTimer != nil {
			sc.flushTimer.Stop()
		}
		sc.wmu.Unlock()
	})
}

func (sc *serverConn) addSession(sess *session) {
	sc.smu.Lock()
	sc.sessions = append(sc.sessions, sess)
	sc.smu.Unlock()
}

func (sc *serverConn) removeSession(sess *session) {
	sc.smu.Lock()
	for i, s := range sc.sessions {
		if s == sess {
			sc.sessions = append(sc.sessions[:i], sc.sessions[i+1:]...)
			break
		}
	}
	sc.smu.Unlock()
}

// takeSessions empties and returns the connection's session list; used
// by teardown so each session is unregistered exactly once.
func (sc *serverConn) takeSessions() []*session {
	sc.smu.Lock()
	out := sc.sessions
	sc.sessions = nil
	sc.smu.Unlock()
	return out
}

// enableBatch switches the connection to coalesced reply writes; it
// runs once, from the Hello/Restore handshake, before any prediction
// can be pending. The flush timer is created stopped — the hot path
// only ever Resets it.
func (sc *serverConn) enableBatch() {
	sc.wmu.Lock()
	if !sc.batched {
		sc.batched = true
		sc.preds = make([]wire.Prediction, 0, sc.srv.flushThreshold)
		sc.bbuf = make([]byte, 0, sc.srv.flushThreshold*wire.PredictionRecordSize+wire.BatchOverhead)
		sc.vecs = make(net.Buffers, 0, 2)
		t := time.AfterFunc(time.Hour, sc.flushExpired)
		t.Stop()
		sc.flushTimer = t
	}
	sc.wmu.Unlock()
}

// flushExpired is the flush timer's callback: the latency bound on a
// partially filled batch has expired, so write it out now. A write
// failure tears the connection down exactly as it would on the worker
// path (dropConn must run outside wmu).
func (sc *serverConn) flushExpired() {
	sc.wmu.Lock()
	err := sc.flushLocked()
	sc.wmu.Unlock()
	if err != nil {
		sc.srv.dropConn(sc)
	}
}

// flushLocked writes everything pending — the coalesced prediction
// batch, the control frame in wbuf, or both in one writev — under the
// write deadline, then clears both buffers so a later timer-driven
// flush can never re-send stale bytes. Callers hold wmu.
//
//lint:hotpath
func (sc *serverConn) flushLocked() error {
	nb := len(sc.preds)
	if nb == 0 && len(sc.wbuf) == 0 {
		return nil
	}
	if nb > 0 {
		var err error
		sc.bbuf, err = wire.AppendBatchPredictions(sc.bbuf[:0], sc.preds)
		if err != nil {
			return err
		}
	}
	if d := sc.srv.cfg.WriteTimeout; d > 0 {
		_ = sc.c.SetWriteDeadline(time.Now().Add(d))
	}
	var err error
	frames := uint64(1)
	if nb > 0 {
		sc.vecs = append(sc.vecs[:0], sc.bbuf)
		if len(sc.wbuf) > 0 {
			sc.vecs = append(sc.vecs, sc.wbuf)
			frames = 2
		}
		// WriteTo consumes the net.Buffers it is called on, so it runs
		// on wvec, a scratch copy of the header: vecs keeps the reusable
		// backing array, and a field (unlike a local, which escapes via
		// the pointer receiver) costs no allocation.
		sc.wvec = sc.vecs
		_, err = sc.wvec.WriteTo(sc.c)
	} else {
		_, err = sc.c.Write(sc.wbuf)
	}
	if err != nil {
		return err
	}
	sc.srv.framesOut.Add(frames)
	sc.wbuf = sc.wbuf[:0]
	if nb > 0 {
		sc.preds = sc.preds[:0]
		sc.flushTimer.Stop()
		sc.srv.flushes.Inc()
		sc.srv.flushFrames.Observe(float64(nb))
		sc.srv.flushSeconds.Observe(float64(time.Now().UnixNano()-sc.firstPendNs) / 1e9)
	}
	return nil
}

func (sc *serverConn) writeAck(a *wire.Ack) error {
	sc.wmu.Lock()
	defer sc.wmu.Unlock()
	sc.wbuf = wire.AppendAck(sc.wbuf[:0], a)
	return sc.flushLocked()
}

// writePredictions is the worker pool's reply path: one session
// batch's predictions under one wmu hold. Unbatched connections get
// the v1 bytes, one Prediction frame per prediction, sharing one
// write. Batched connections buffer the predictions, flushing each
// time the pending batch reaches the size threshold; the timer armed
// when a batch opens bounds its latency. pending reports whether
// predictions are left buffered, so the caller can flush them when it
// runs out of work.
//
//lint:hotpath
func (sc *serverConn) writePredictions(ps []wire.Prediction) (pending bool, err error) {
	if len(ps) == 0 {
		return false, nil
	}
	sc.wmu.Lock()
	defer sc.wmu.Unlock()
	if !sc.batched {
		sc.wbuf = sc.wbuf[:0]
		for i := range ps {
			sc.wbuf = wire.AppendPrediction(sc.wbuf, &ps[i])
		}
		if err := sc.flushLocked(); err != nil {
			return false, err
		}
		// flushLocked counts the control buffer as one frame.
		sc.srv.framesOut.Add(uint64(len(ps) - 1))
		return false, nil
	}
	for len(ps) > 0 {
		if len(sc.preds) == 0 {
			sc.firstPendNs = time.Now().UnixNano()
			if iv := sc.srv.cfg.FlushInterval; iv > 0 {
				sc.flushTimer.Reset(iv)
			}
		}
		k := min(len(ps), sc.srv.flushThreshold-len(sc.preds))
		sc.preds = append(sc.preds, ps[:k]...)
		ps = ps[k:]
		if len(sc.preds) >= sc.srv.flushThreshold || sc.srv.cfg.FlushInterval < 0 {
			if err := sc.flushLocked(); err != nil {
				return false, err
			}
		}
	}
	return len(sc.preds) > 0, nil
}

// flushPending writes out the pending reply batch, if any: the idle
// flush of a worker that buffered predictions here and has run out of
// work.
//
//lint:hotpath
func (sc *serverConn) flushPending() error {
	sc.wmu.Lock()
	defer sc.wmu.Unlock()
	if len(sc.preds) == 0 {
		return nil
	}
	return sc.flushLocked()
}

func (sc *serverConn) writeDrain(d *wire.Drain) error {
	sc.wmu.Lock()
	defer sc.wmu.Unlock()
	sc.wbuf = wire.AppendDrain(sc.wbuf[:0], d)
	return sc.flushLocked()
}

func (sc *serverConn) writeSnapshot(s *wire.Snapshot) error {
	sc.wmu.Lock()
	defer sc.wmu.Unlock()
	sc.wbuf = sc.wbuf[:0]
	buf, err := wire.AppendSnapshot(sc.wbuf, s)
	if err != nil {
		return err
	}
	sc.wbuf = buf
	return sc.flushLocked()
}

func (sc *serverConn) writeRollup(r *wire.Rollup) error {
	sc.wmu.Lock()
	defer sc.wmu.Unlock()
	sc.wbuf = wire.AppendRollup(sc.wbuf[:0], r)
	return sc.flushLocked()
}

func (sc *serverConn) writeError(e *wire.ErrorFrame) error {
	sc.wmu.Lock()
	defer sc.wmu.Unlock()
	sc.wbuf = sc.wbuf[:0]
	buf, err := wire.AppendError(sc.wbuf, e)
	if err != nil {
		return err
	}
	sc.wbuf = buf
	return sc.flushLocked()
}
