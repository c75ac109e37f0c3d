package phased

import (
	"sync"
	"time"

	"phasemon/internal/agg"
	"phasemon/internal/dvfs"
	"phasemon/internal/phase"
	"phasemon/internal/wire"
)

// worker owns a shard of the session space. Its mutex guards the
// runqueue and the queue/queued/state/draining fields of every session
// pinned to it; the run goroutine is the only place those sessions'
// monitors step, which is what serializes per-session prediction
// compute without per-session locks.
type worker struct {
	srv *Server
	// idx is the worker's position in the pool and its shard index in
	// the rollup aggregator: the two are pinned by the same FNV-1a
	// hash, so a session's outcomes always land in one agg shard.
	idx     int
	mu      sync.Mutex
	cond    *sync.Cond
	runq    runQueue // guarded by mu
	started bool     // guarded by Server.mu
	stopped bool     // guarded by mu

	// Run-goroutine scratch, reused across batches so the steady state
	// allocates nothing: the popped samples, their predictions and
	// rollup entries, and the batched connections holding predictions
	// this worker buffered since its last idle flush (each listed once,
	// deduplicated by serverConn.idleMarks[idx]).
	batch   []wire.Sample     // owned by the run goroutine
	preds   []wire.Prediction // owned by the run goroutine
	entries []agg.Entry       // owned by the run goroutine
	pending []*serverConn     // owned by the run goroutine

	// snapBuf is the run goroutine's reusable monitor-state encode
	// buffer: draining a worker's whole session shard snapshots into
	// one allocation-amortized scratch slice.
	snapBuf []byte // owned by the run goroutine
}

// runQueue is a FIFO of sessions in a growable ring. Popping never
// gives up front capacity, so a steady schedule/pop cycle allocates
// nothing; the ring doubles only when more sessions are runnable at
// once than ever before. Access is guarded by the owning worker's
// mutex.
type runQueue struct {
	buf     []*session
	head, n int
}

func (q *runQueue) push(s *session) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)%len(q.buf)] = s
	q.n++
}

func (q *runQueue) grow() {
	nb := make([]*session, max(8, 2*len(q.buf)))
	for i := 0; i < q.n; i++ {
		nb[i] = q.buf[(q.head+i)%len(q.buf)]
	}
	q.buf, q.head = nb, 0
}

// pop removes and returns the oldest session; callers check len first.
func (q *runQueue) pop() *session {
	s := q.buf[q.head]
	q.buf[q.head] = nil
	q.head = (q.head + 1) % len(q.buf)
	q.n--
	return s
}

func (q *runQueue) len() int { return q.n }

// scheduleLocked puts the session on the runqueue if it is not already
// there; callers hold w.mu.
//
//lint:hotpath
func (w *worker) scheduleLocked(sess *session) {
	if !sess.queued {
		sess.queued = true
		w.runq.push(sess)
		w.cond.Signal()
	}
}

// stop wakes the run loop for exit once its queue empties.
func (w *worker) stop() {
	w.mu.Lock()
	w.stopped = true
	w.cond.Broadcast()
	w.mu.Unlock()
}

// run is the worker loop: pop a session, take its whole pending batch,
// step each sample through the monitor, and hand the predictions to
// the connection. Batches keep lock hold times short — the reader can
// keep queueing while this goroutine computes — and a session
// re-queues itself if more samples arrive mid-batch, preserving FIFO
// order because it is always this one goroutine that processes it.
// When the runqueue empties, the worker flushes every batched
// connection it left predictions pending on before it sleeps.
//
//lint:hotpath
func (w *worker) run() {
	w.mu.Lock()
	for {
		for w.runq.len() == 0 && !w.stopped {
			if len(w.pending) > 0 {
				w.mu.Unlock()
				w.flushIdle()
				w.mu.Lock()
				continue
			}
			w.cond.Wait()
		}
		if w.runq.len() == 0 && w.stopped {
			w.mu.Unlock()
			return
		}
		sess := w.runq.pop()
		w.batch = w.batch[:0]
		for {
			smp, ok := sess.queue.pop()
			if !ok {
				break
			}
			w.batch = append(w.batch, smp)
		}
		sess.queued = false
		draining := sess.draining
		dropped := sess.dropped
		closed := sess.state == StateClosed
		if draining && !closed {
			sess.state = StateDraining
		}
		w.mu.Unlock()

		if !closed && len(w.batch) > 0 {
			closed = !w.serve(sess, dropped)
		}
		if draining && !closed {
			w.finishDrain(sess)
		}

		w.mu.Lock()
	}
}

// serve steps one session batch and hands its predictions to the
// connection, paying the batch's fixed costs once: two clock reads,
// one connection write lock, one rollup shard lock. The latency
// recorded for each sample is the batch's step+write time divided by
// its size. Every stepped sample is ingested even when the write
// fails; serve then tears the connection down and reports false.
//
//lint:hotpath
func (w *worker) serve(sess *session, dropped uint64) bool {
	w.preds = w.preds[:0]
	w.entries = w.entries[:0]
	start := time.Now()
	for i := range w.batch {
		p, outcome := sess.step(&w.batch[i], dropped)
		w.preds = append(w.preds, p)
		// Class/Setting come from the prediction: the pair the
		// translation will actually apply next interval.
		w.entries = append(w.entries, agg.Entry{Class: phase.Class(p.Class),
			Setting: dvfs.Setting(p.Setting), Outcome: outcome})
	}
	pending, err := sess.conn.writePredictions(w.preds)
	n := int64(len(w.batch))
	per := time.Since(start).Nanoseconds() / n
	w.srv.frameSeconds.ObserveN(float64(per)/1e9, uint64(n))
	w.srv.agg.IngestBatchAt(w.idx, start.UnixNano(), sess.id, w.entries, per)
	if err != nil {
		w.srv.dropConn(sess.conn)
		return false
	}
	if pending && !sess.conn.idleMarks[w.idx] {
		sess.conn.idleMarks[w.idx] = true
		w.pending = append(w.pending, sess.conn)
	}
	return true
}

// flushIdle writes out the reply batches this worker left pending:
// the runqueue is empty, so nothing it could add to them is coming
// soon, and holding them for the FlushInterval timer would only idle
// the closed-loop clients waiting on them.
//
//lint:hotpath
func (w *worker) flushIdle() {
	for i, sc := range w.pending {
		sc.idleMarks[w.idx] = false
		w.pending[i] = nil
		if err := sc.flushPending(); err != nil {
			w.srv.dropConn(sc)
		}
	}
	w.pending = w.pending[:0]
}

// finishDrain completes a drained session whose queue the worker has
// just flushed: close it, ship its snapshot if it asked for one,
// unregister it, and send the Drain reply.
func (w *worker) finishDrain(sess *session) {
	last := sess.lastSeq
	if sess.processed == 0 {
		last = wire.NoSamples
	}
	// Unregister before the Drain reply goes out: a client that
	// re-claims the id the moment its Drain returns must find the table
	// slot already free.
	w.mu.Lock()
	sess.state = StateClosed
	droppedNow := sess.dropped
	w.mu.Unlock()
	// Snapshot before the Drain reply: the client treats Drain as the
	// session's last frame, so the state must already be in its hands.
	// The queue is empty and the state is Closed, so the monitor is
	// quiescent; the worker goroutine owns it.
	if sess.wantSnapshot {
		if state, err := sess.mon.Snapshot(w.snapBuf[:0]); err == nil {
			w.snapBuf = state
			snap := wire.Snapshot{SessionID: sess.id, LastSeq: last,
				Processed: sess.processed, Dropped: droppedNow,
				Spec: sess.spec, State: state}
			_ = sess.conn.writeSnapshot(&snap)
		}
	}
	w.srv.unregisterSession(sess)
	d := wire.Drain{SessionID: sess.id, LastSeq: last}
	_ = sess.conn.writeDrain(&d)
}
