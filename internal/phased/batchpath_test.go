package phased

import (
	"bytes"
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"phasemon/internal/phaseclient"
	"phasemon/internal/telemetry"
	"phasemon/internal/wire"
)

// TestIdleFlushAnswersWithoutTimer: with the flush timer an hour long
// and the size threshold at its maximum, only the idle flush can send
// a batched reply. A closed-loop session with one sample outstanding
// must still be answered promptly, every time.
func TestIdleFlushAnswersWithoutTimer(t *testing.T) {
	_, addr, hub := startServer(t, Config{FlushInterval: time.Hour, FlushBytes: 1 << 30})
	cl := phaseclient.New(phaseclient.Config{Addr: addr, BatchSize: 64, FlushInterval: -1})
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	sess, _, err := cl.Open(ctx, 1, "gpht_8_128", 100e6)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := sess.Send(wire.Sample{Seq: uint64(i), Uops: 100e6, Cycles: 80e6, MemTx: uint64(i%5) * 1e6}); err != nil {
			t.Fatal(err)
		}
		rctx, rcancel := context.WithTimeout(ctx, time.Second)
		p, err := sess.Recv(rctx)
		rcancel()
		if err != nil {
			t.Fatalf("sample %d not answered within 1s: %v", i, err)
		}
		if p.Seq != uint64(i) {
			t.Fatalf("answer seq = %d, want %d", p.Seq, i)
		}
	}
	if hub.PhasedFlushes.Value() == 0 {
		t.Error("flush counter = 0: the replies were not batch-framed")
	}
}

// TestServedSessionsSkipJournal: served sessions count every step on
// the node's hub but write no journal events.
func TestServedSessionsSkipJournal(t *testing.T) {
	const n = 300
	_, addr, hub := startServer(t, Config{QueueDepth: n})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for _, batch := range []int{0, 64} {
		wg.Add(1)
		go func(id uint64, batch int) {
			defer wg.Done()
			cl := phaseclient.New(phaseclient.Config{Addr: addr, BatchSize: batch})
			defer cl.Close()
			sess, _, err := cl.Open(ctx, id, "gpht_8_128", 100e6)
			if err != nil {
				t.Errorf("open: %v", err)
				return
			}
			for i := 0; i < n; i++ {
				if err := sess.Send(wire.Sample{Seq: uint64(i), Uops: 100e6, Cycles: 80e6, MemTx: uint64(i%9) * 1e6}); err != nil {
					t.Errorf("send: %v", err)
					return
				}
			}
			for i := 0; i < n; i++ {
				if _, err := sess.Recv(ctx); err != nil {
					t.Errorf("recv %d: %v", i, err)
					return
				}
			}
		}(uint64(batch+1), batch)
	}
	wg.Wait()
	if got := hub.Steps.Value(); got != 2*n {
		t.Errorf("hub steps = %d, want %d", got, 2*n)
	}
	if acc := hub.Accuracy(); acc.Total != 2*(n-1) {
		t.Errorf("hub scored %d predictions, want %d", acc.Total, 2*(n-1))
	}
	if got := hub.Journal.Seq(); got != 0 {
		t.Errorf("hub journal recorded %d events from served sessions, want 0", got)
	}
}

// recordConn is a net.Conn that keeps every byte written to it.
type recordConn struct {
	net.Conn
	mu  sync.Mutex
	buf bytes.Buffer
}

func (c *recordConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.buf.Write(p)
}

func (c *recordConn) SetWriteDeadline(time.Time) error { return nil }
func (c *recordConn) Close() error                     { return nil }

func (c *recordConn) bytes() []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]byte(nil), c.buf.Bytes()...)
}

// TestV1PredictionsBytesUnchanged: a batch of predictions written to
// an unbatched connection is the v1 byte stream, one Prediction frame
// per prediction, and counts as that many frames out.
func TestV1PredictionsBytesUnchanged(t *testing.T) {
	hub := telemetry.NewHub(6)
	srv, err := New(Config{Telemetry: hub})
	if err != nil {
		t.Fatal(err)
	}
	rc := &recordConn{}
	sc := &serverConn{srv: srv, c: rc}
	ps := make([]wire.Prediction, 5)
	var want []byte
	for i := range ps {
		ps[i] = wire.Prediction{SessionID: 3, Seq: uint64(i), Actual: 1, Next: uint8(i % 6), Class: 2, Setting: 1, Dropped: 4}
		want = wire.AppendPrediction(want, &ps[i])
	}
	pending, err := sc.writePredictions(ps)
	if err != nil || pending {
		t.Fatalf("writePredictions = (%v, %v), want (false, nil)", pending, err)
	}
	if got := rc.bytes(); !bytes.Equal(got, want) {
		t.Errorf("v1 bytes differ from per-frame encoding:\n got %x\nwant %x", got, want)
	}
	if got := hub.PhasedFramesOut.Value(); got != uint64(len(ps)) {
		t.Errorf("frames out = %d, want %d", got, len(ps))
	}
}

// TestBatchUnknownSessionMidBatch: a sample batch naming an unknown
// session in the middle answers that record with CodeUnknownSession,
// keeps the connection, and still queues the known records, each
// session's in frame order, on their pinned workers.
func TestBatchUnknownSessionMidBatch(t *testing.T) {
	hub := telemetry.NewHub(6)
	srv, err := New(Config{Workers: 4, Telemetry: hub})
	if err != nil {
		t.Fatal(err)
	}
	rc := &recordConn{}
	sc := &serverConn{srv: srv, c: rc}
	// Two sessions pinned to different workers.
	var ids []uint64
	for id := uint64(1); len(ids) < 2; id++ {
		if len(ids) == 0 || srv.workerFor(id) != srv.workerFor(ids[0]) {
			ids = append(ids, id)
		}
	}
	a, b := ids[0], ids[1]
	for _, id := range ids {
		sess := &session{id: id, conn: sc, queue: newSampleRing(16), state: StateOpen}
		srv.sessions[id] = sess
	}
	const unknown = 999
	recs := []wire.Sample{
		{SessionID: a, Seq: 0}, {SessionID: b, Seq: 0}, {SessionID: a, Seq: 1},
		{SessionID: unknown, Seq: 0},
		{SessionID: b, Seq: 1}, {SessionID: a, Seq: 2}, {SessionID: a, Seq: 3},
	}
	frame, err := wire.AppendBatchSamples(nil, recs)
	if err != nil {
		t.Fatal(err)
	}
	_, payload, err := wire.NewDecoder(bytes.NewReader(frame)).Next()
	if err != nil {
		t.Fatal(err)
	}
	if !srv.handleBatch(sc, payload) {
		t.Fatal("handleBatch closed the connection over an unknown session")
	}

	for id, want := range map[uint64][]uint64{a: {0, 1, 2, 3}, b: {0, 1}} {
		sess := srv.sessions[id]
		var got []uint64
		for {
			smp, ok := sess.queue.pop()
			if !ok {
				break
			}
			got = append(got, smp.Seq)
		}
		if len(got) != len(want) {
			t.Errorf("session %d queued seqs %v, want %v", id, got, want)
			continue
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("session %d queued seqs %v, want %v", id, got, want)
				break
			}
		}
		if !sess.queued {
			t.Errorf("session %d was not scheduled", id)
		}
	}
	if n := hub.PhasedProtocolErrors.Value(); n != 1 {
		t.Errorf("protocol errors = %d, want 1", n)
	}
	kind, payload, err := wire.NewDecoder(bytes.NewReader(rc.bytes())).Next()
	if err != nil || kind != wire.KindError {
		t.Fatalf("reply = (%v, %v), want an Error frame", kind, err)
	}
	var e wire.ErrorFrame
	if err := wire.DecodeError(payload, &e); err != nil || e.Code != wire.CodeUnknownSession || e.SessionID != unknown {
		t.Errorf("reply = %+v (%v), want CodeUnknownSession for session %d", e, err, unknown)
	}
}

// TestRunQueueCyclesZeroAlloc: scheduling and popping sessions in a
// steady cycle never allocates once the ring has grown to the peak
// number of runnable sessions, and pops come out in schedule order.
func TestRunQueueCyclesZeroAlloc(t *testing.T) {
	srv, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	w := srv.workers[0]
	sessions := make([]*session, 5)
	for i := range sessions {
		sessions[i] = &session{id: uint64(i + 1)}
	}
	turn := 0
	cycle := func() {
		w.mu.Lock()
		// Rotate the schedule order so the ring's head wraps around.
		for k := range sessions {
			w.scheduleLocked(sessions[(turn+k)%len(sessions)])
		}
		for k := 0; k < len(sessions)-1; k++ {
			s := w.runq.pop()
			s.queued = false
			if want := sessions[(turn+k)%len(sessions)]; s != want {
				t.Errorf("popped session %d, want %d", s.id, want.id)
			}
		}
		// Leave one behind, then drain it, so the queue is never reset
		// between cycles by emptying in lockstep.
		s := w.runq.pop()
		s.queued = false
		w.mu.Unlock()
		turn++
	}
	cycle()
	if n := testing.AllocsPerRun(1000, cycle); n != 0 {
		t.Errorf("schedule/pop cycle allocs/op = %v, want 0", n)
	}
	if n := w.runq.len(); n != 0 {
		t.Errorf("runqueue holds %d sessions after balanced cycles, want 0", n)
	}
}
