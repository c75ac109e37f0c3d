package phased

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"phasemon/internal/dvfs"
	"phasemon/internal/governor"
	"phasemon/internal/phase"
	"phasemon/internal/phaseclient"
	"phasemon/internal/telemetry"
	"phasemon/internal/wcache"
	"phasemon/internal/wire"
	"phasemon/internal/workload"
)

// startServer builds and starts a server on a loopback port, returning
// it, its address, and its hub. The server is shut down at test end.
func startServer(t *testing.T, cfg Config) (*Server, string, *telemetry.Hub) {
	t.Helper()
	if cfg.Telemetry == nil {
		cfg.Telemetry = telemetry.NewHub(6)
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
	return srv, addr.String(), cfg.Telemetry
}

// localRun executes the workload locally under a monitoring-only
// policy and returns the governed run's kernel log: the raw counters
// to stream and the predictions a bit-identical server must reproduce.
func localRun(t *testing.T, spec, profileName string, intervals int) []struct {
	Uops, MemTx, Cycles uint64
	Actual, Predicted   phase.ID
} {
	t.Helper()
	prof, err := workload.ByName(profileName)
	if err != nil {
		t.Fatalf("profile: %v", err)
	}
	trace := wcache.New(wcache.Config{}).Get(prof, workload.Params{Seed: 7, Intervals: intervals})
	pol, err := governor.PolicyFromSpec(governor.MonitorPrefix + spec)
	if err != nil {
		t.Fatalf("PolicyFromSpec: %v", err)
	}
	res, err := governor.Run(trace.Generator(), pol, governor.Config{})
	if err != nil {
		t.Fatalf("governor.Run: %v", err)
	}
	out := make([]struct {
		Uops, MemTx, Cycles uint64
		Actual, Predicted   phase.ID
	}, len(res.Log))
	for i, e := range res.Log {
		out[i].Uops, out[i].MemTx, out[i].Cycles = e.Uops, e.MemTx, e.Cycles
		out[i].Actual, out[i].Predicted = e.Actual, e.Predicted
	}
	return out
}

// TestLoopbackDeterminism is the tentpole property: a session streamed
// over TCP must produce, bit for bit, the same actual/predicted phase
// sequence as a local simulated run of the same spec over the same
// counters — and the DVFS settings the Table 2 translation assigns.
func TestLoopbackDeterminism(t *testing.T) {
	trans, err := dvfs.Identity(dvfs.PentiumM(), 6)
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []string{"gpht_8_128", "fixwindow_128_majority"} {
		t.Run(spec, func(t *testing.T) {
			want := localRun(t, spec, "mcf_inp", 600)
			// The queue must hold the whole stream: an eviction would
			// (by design) break bit-identity, and this test sends far
			// faster than the worker drains.
			_, addr, hub := startServer(t, Config{QueueDepth: 1024})
			cl := phaseclient.New(phaseclient.Config{Addr: addr})
			defer cl.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			sess, numPhases, err := cl.Open(ctx, 42, spec, 100e6)
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			if numPhases != 6 {
				t.Fatalf("Ack.NumPhases = %d, want 6", numPhases)
			}
			go func() {
				for i, e := range want {
					_ = sess.Send(wire.Sample{Seq: uint64(i), Uops: e.Uops, MemTx: e.MemTx, Cycles: e.Cycles})
				}
			}()
			for i, e := range want {
				p, err := sess.Recv(ctx)
				if err != nil {
					t.Fatalf("Recv #%d: %v", i, err)
				}
				if p.Seq != uint64(i) {
					t.Fatalf("prediction #%d out of order: seq %d", i, p.Seq)
				}
				if p.Actual != uint8(e.Actual) || p.Next != uint8(e.Predicted) {
					t.Fatalf("prediction #%d diverged: got actual=%d next=%d, local run had actual=%d predicted=%d",
						i, p.Actual, p.Next, e.Actual, e.Predicted)
				}
				if want := uint8(trans.Setting(e.Predicted)); p.Setting != want {
					t.Fatalf("prediction #%d setting = %d, want %d", i, p.Setting, want)
				}
				if want := uint8(phase.ClassOf(e.Predicted, 6)); p.Class != want {
					t.Fatalf("prediction #%d class = %d, want %d", i, p.Class, want)
				}
				if p.Dropped != 0 {
					t.Fatalf("prediction #%d reports %d drops on an unloaded loopback", i, p.Dropped)
				}
			}
			d, err := sess.Drain(ctx)
			if err != nil {
				t.Fatalf("Drain: %v", err)
			}
			if d.LastSeq != uint64(len(want)-1) {
				t.Fatalf("Drain.LastSeq = %d, want %d", d.LastSeq, len(want)-1)
			}
			if n := hub.PhasedProtocolErrors.Value(); n != 0 {
				t.Fatalf("protocol errors = %d, want 0", n)
			}
		})
	}
}

// TestConcurrentSessionsSoak runs 64 concurrent sessions spread over 8
// connections under -race: every session must get every prediction, in
// order, and drain cleanly.
func TestConcurrentSessionsSoak(t *testing.T) {
	const (
		conns            = 8
		sessionsPerConn  = 8
		samplesPerStream = 200
	)
	_, addr, hub := startServer(t, Config{Workers: 4})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	var wg sync.WaitGroup
	errs := make(chan error, conns*sessionsPerConn)
	for c := 0; c < conns; c++ {
		cl := phaseclient.New(phaseclient.Config{Addr: addr})
		defer cl.Close()
		for k := 0; k < sessionsPerConn; k++ {
			id := uint64(c*sessionsPerConn + k + 1)
			wg.Add(1)
			go func(cl *phaseclient.Client, id uint64) {
				defer wg.Done()
				sess, _, err := cl.Open(ctx, id, "gpht_8_128", 100e6)
				if err != nil {
					errs <- fmt.Errorf("session %d open: %w", id, err)
					return
				}
				for i := 0; i < samplesPerStream; i++ {
					if err := sess.Send(wire.Sample{
						Seq:    uint64(i),
						Uops:   100e6,
						MemTx:  uint64(id*1000) * uint64(i%7),
						Cycles: 80e6 + uint64(i%13)*1e6,
					}); err != nil {
						errs <- fmt.Errorf("session %d send #%d: %w", id, i, err)
						return
					}
				}
				// The burst may overrun the bounded queue; drop-oldest
				// keeps the tail, so the final sample always survives
				// and predictions + echoed drops account for the burst.
				d, err := sess.Drain(ctx)
				if err != nil {
					errs <- fmt.Errorf("session %d drain: %w", id, err)
					return
				}
				if d.LastSeq != samplesPerStream-1 {
					errs <- fmt.Errorf("session %d drain LastSeq = %d, want %d", id, d.LastSeq, samplesPerStream-1)
					return
				}
				var preds int
				var last wire.Prediction
				lastSeq := int64(-1)
				for sess.Pending() > 0 {
					p, err := sess.Recv(ctx)
					if err != nil {
						errs <- fmt.Errorf("session %d recv: %w", id, err)
						return
					}
					if int64(p.Seq) <= lastSeq {
						errs <- fmt.Errorf("session %d prediction seq %d after %d; must be increasing", id, p.Seq, lastSeq)
						return
					}
					lastSeq = int64(p.Seq)
					preds++
					last = p
				}
				if preds == 0 {
					errs <- fmt.Errorf("session %d got no predictions", id)
					return
				}
				if uint64(preds)+last.Dropped != samplesPerStream {
					errs <- fmt.Errorf("session %d: predictions (%d) + drops (%d) != samples (%d)",
						id, preds, last.Dropped, samplesPerStream)
				}
			}(cl, id)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if n := hub.PhasedProtocolErrors.Value(); n != 0 {
		t.Errorf("protocol errors = %d, want 0", n)
	}
	if got := hub.PhasedSessions.Value(); got != 0 {
		t.Errorf("sessions gauge = %v after all drains, want 0", got)
	}
}

// TestGracefulShutdownDrainsSessions: a server-side Shutdown must
// flush queued samples, send every open session an unsolicited Drain,
// and only then close connections.
func TestGracefulShutdownDrainsSessions(t *testing.T) {
	srv, addr, _ := startServer(t, Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	cl := phaseclient.New(phaseclient.Config{Addr: addr})
	defer cl.Close()

	sess, _, err := cl.Open(ctx, 7, "lastvalue", 100e6)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	const n = 50
	for i := 0; i < n; i++ {
		if err := sess.Send(wire.Sample{Seq: uint64(i), Uops: 100e6, Cycles: 90e6}); err != nil {
			t.Fatalf("Send #%d: %v", i, err)
		}
	}
	// Consume everything so the server-side flush isn't throttled by
	// our receive window, then shut down.
	for i := 0; i < n; i++ {
		if _, err := sess.Recv(ctx); err != nil {
			t.Fatalf("Recv #%d: %v", i, err)
		}
	}
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	select {
	case d := <-sess.Drained():
		if d.LastSeq != n-1 {
			t.Fatalf("server drain LastSeq = %d, want %d", d.LastSeq, n-1)
		}
	case <-ctx.Done():
		t.Fatal("no Drain frame arrived after Shutdown")
	}
	// The listener is gone: a fresh bounded dial must fail.
	nc := phaseclient.New(phaseclient.Config{
		Addr: addr, MaxAttempts: 2,
		BackoffBase: 5 * time.Millisecond, DialTimeout: time.Second,
	})
	defer nc.Close()
	if _, _, err := nc.Open(ctx, 8, "lastvalue", 100e6); err == nil {
		t.Fatal("Open succeeded against a shut-down server")
	}
}

// dialRaw opens a raw TCP connection for protocol-abuse tests.
func dialRaw(t *testing.T, addr string) net.Conn {
	t.Helper()
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

// appendHello encodes a Hello, failing the test on the (here
// impossible) oversize-spec error.
func appendHello(t *testing.T, dst []byte, h *wire.Hello) []byte {
	t.Helper()
	buf, err := wire.AppendHello(dst, h)
	if err != nil {
		t.Fatalf("AppendHello: %v", err)
	}
	return buf
}

// awaitCounter polls a telemetry counter until it reaches want.
func awaitCounter(t *testing.T, c *telemetry.Counter, want uint64, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if c.Value() >= want {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("%s = %d, want >= %d", what, c.Value(), want)
}

// TestMalformedFrameRejected: garbage bytes draw an Error frame with
// CodeBadFrame and the connection is closed.
func TestMalformedFrameRejected(t *testing.T) {
	_, addr, hub := startServer(t, Config{})
	c := dialRaw(t, addr)
	if _, err := c.Write([]byte("this is not a frame, not even close")); err != nil {
		t.Fatalf("write: %v", err)
	}
	dec := wire.NewDecoder(c)
	kind, payload, err := dec.Next()
	if err != nil {
		t.Fatalf("expected an Error frame before close, got %v", err)
	}
	if kind != wire.KindError {
		t.Fatalf("got %v frame, want KindError", kind)
	}
	var e wire.ErrorFrame
	if err := wire.DecodeError(payload, &e); err != nil {
		t.Fatalf("DecodeError: %v", err)
	}
	if e.Code != wire.CodeBadFrame {
		t.Fatalf("error code = %v, want CodeBadFrame", e.Code)
	}
	if _, _, err := dec.Next(); err == nil {
		t.Fatal("connection still open after protocol violation")
	}
	awaitCounter(t, hub.PhasedProtocolErrors, 1, "protocol error counter")
}

// TestShortReadCountsProtocolError: a frame truncated mid-payload by a
// dying client is a protocol error, not a crash and not a clean EOF.
func TestShortReadCountsProtocolError(t *testing.T) {
	_, addr, hub := startServer(t, Config{})
	c := dialRaw(t, addr)
	full := appendHello(t, nil, &wire.Hello{SessionID: 1, GranularityUops: 100e6, Spec: []byte("gpht_8_128")})
	if _, err := c.Write(full[:len(full)-5]); err != nil {
		t.Fatalf("write: %v", err)
	}
	_ = c.Close()
	awaitCounter(t, hub.PhasedProtocolErrors, 1, "protocol error counter")
}

// TestUnknownSessionAndBadSpecSurvivable: addressing a session that
// does not exist, or negotiating (or restoring) an unknown predictor
// spec, draws an Error frame but keeps the connection usable.
func TestUnknownSessionAndBadSpecSurvivable(t *testing.T) {
	_, addr, _ := startServer(t, Config{})
	c := dialRaw(t, addr)
	dec := wire.NewDecoder(c)

	// Sample for a session that was never opened.
	buf := wire.AppendSample(nil, &wire.Sample{SessionID: 99, Uops: 1, Cycles: 1})
	if _, err := c.Write(buf); err != nil {
		t.Fatal(err)
	}
	expectError(t, dec, wire.CodeUnknownSession)

	// A spec the registry rejects.
	buf = appendHello(t, buf[:0], &wire.Hello{SessionID: 1, Spec: []byte("no_such_predictor")})
	if _, err := c.Write(buf); err != nil {
		t.Fatal(err)
	}
	expectError(t, dec, wire.CodeBadSpec)

	// The same spec check guards a Restore.
	buf, err := wire.AppendRestore(buf[:0], &wire.Restore{SessionID: 1, Spec: []byte("no_such_predictor")})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write(buf); err != nil {
		t.Fatal(err)
	}
	expectError(t, dec, wire.CodeBadSpec)

	// The connection still negotiates a real session afterward.
	buf = appendHello(t, buf[:0], &wire.Hello{SessionID: 1, Spec: []byte("lastvalue")})
	if _, err := c.Write(buf); err != nil {
		t.Fatal(err)
	}
	kind, payload, err := dec.Next()
	if err != nil || kind != wire.KindAck {
		t.Fatalf("after recoverable errors: got (%v, %v), want an Ack", kind, err)
	}
	var a wire.Ack
	if err := wire.DecodeAck(payload, &a); err != nil || a.SessionID != 1 {
		t.Fatalf("bad Ack: %+v, %v", a, err)
	}
}

// TestDuplicateSessionRejected: one session id cannot be claimed twice
// while open, and becomes claimable again after a drain.
func TestDuplicateSessionRejected(t *testing.T) {
	_, addr, _ := startServer(t, Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	cl := phaseclient.New(phaseclient.Config{Addr: addr})
	defer cl.Close()
	sess, _, err := cl.Open(ctx, 5, "lastvalue", 100e6)
	if err != nil {
		t.Fatal(err)
	}

	c := dialRaw(t, addr)
	dec := wire.NewDecoder(c)
	buf := appendHello(t, nil, &wire.Hello{SessionID: 5, Spec: []byte("lastvalue")})
	if _, err := c.Write(buf); err != nil {
		t.Fatal(err)
	}
	expectError(t, dec, wire.CodeDuplicateSession)

	if _, err := sess.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if _, err := c.Write(buf); err != nil {
		t.Fatal(err)
	}
	kind, _, err := dec.Next()
	if err != nil || kind != wire.KindAck {
		t.Fatalf("reclaiming a drained session id: got (%v, %v), want an Ack", kind, err)
	}
}

// TestPerIPSessionCap: the cap bounds concurrent sessions per client
// address.
func TestPerIPSessionCap(t *testing.T) {
	_, addr, _ := startServer(t, Config{MaxSessionsPerIP: 2})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	cl := phaseclient.New(phaseclient.Config{Addr: addr})
	defer cl.Close()
	for id := uint64(1); id <= 2; id++ {
		if _, _, err := cl.Open(ctx, id, "lastvalue", 100e6); err != nil {
			t.Fatalf("Open #%d: %v", id, err)
		}
	}
	_, _, err := cl.Open(ctx, 3, "lastvalue", 100e6)
	var serr *phaseclient.ServerError
	if !errors.As(err, &serr) || serr.Code != wire.CodeSessionLimit {
		t.Fatalf("third session: got %v, want CodeSessionLimit server error", err)
	}
}

func expectError(t *testing.T, dec *wire.Decoder, code wire.ErrorCode) {
	t.Helper()
	kind, payload, err := dec.Next()
	if err != nil {
		t.Fatalf("expected Error frame, got %v", err)
	}
	if kind != wire.KindError {
		t.Fatalf("got %v frame, want KindError", kind)
	}
	var e wire.ErrorFrame
	if err := wire.DecodeError(payload, &e); err != nil {
		t.Fatal(err)
	}
	if e.Code != code {
		t.Fatalf("error code = %v, want %v", e.Code, code)
	}
}

// pipeListener turns pre-created net.Pipe server halves into a
// net.Listener, so backpressure tests get an unbuffered transport with
// fully deterministic blocking.
type pipeListener struct {
	conns chan net.Conn
	once  sync.Once
	done  chan struct{}
}

func newPipeListener() *pipeListener {
	return &pipeListener{conns: make(chan net.Conn, 8), done: make(chan struct{})}
}

func (l *pipeListener) dial() net.Conn {
	client, server := net.Pipe()
	l.conns <- server
	return client
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

// TestSlowClientDisconnected: a client that stops reading predictions
// stalls the worker's write; the write deadline must cut the
// connection loose rather than wedge the worker forever.
func TestSlowClientDisconnected(t *testing.T) {
	hub := telemetry.NewHub(6)
	srv, err := New(Config{WriteTimeout: 50 * time.Millisecond, Telemetry: hub})
	if err != nil {
		t.Fatal(err)
	}
	ln := newPipeListener()
	go func() { _ = srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})

	c := ln.dial()
	defer c.Close()
	dec := wire.NewDecoder(c)
	buf := appendHello(t, nil, &wire.Hello{SessionID: 1, Spec: []byte("lastvalue")})
	if _, err := c.Write(buf); err != nil {
		t.Fatal(err)
	}
	if kind, _, err := dec.Next(); err != nil || kind != wire.KindAck {
		t.Fatalf("handshake: (%v, %v)", kind, err)
	}
	// One sample, then never read: the pipe is unbuffered, so the
	// prediction write blocks immediately and the deadline fires.
	buf = wire.AppendSample(buf[:0], &wire.Sample{SessionID: 1, Seq: 0, Uops: 1e8, Cycles: 9e7})
	if _, err := c.Write(buf); err != nil {
		t.Fatal(err)
	}
	// Crucially, do NOT read: the prediction write stays blocked until
	// the write deadline fires and the server reaps the session.
	ok := false
	for end := time.Now().Add(5 * time.Second); time.Now().Before(end); time.Sleep(2 * time.Millisecond) {
		if hub.PhasedSessions.Value() == 0 {
			ok = true
			break
		}
	}
	if !ok {
		t.Fatalf("sessions gauge = %v, want 0 after slow-client disconnect", hub.PhasedSessions.Value())
	}
	// And the server closed the transport out from under us.
	_ = c.SetReadDeadline(time.Now().Add(2 * time.Second))
	one := make([]byte, 1)
	if _, err := io.ReadFull(c, one); err == nil {
		t.Fatal("connection still delivering data after slow-client disconnect")
	}
}

// TestBackpressureDropsOldest: with an unbuffered transport and a tiny
// queue, a burst overruns the session queue; the drop-oldest policy
// must evict, count, and echo the evictions, and flushed samples plus
// drops must account for every sample sent.
func TestBackpressureDropsOldest(t *testing.T) {
	hub := telemetry.NewHub(6)
	srv, err := New(Config{QueueDepth: 4, WriteTimeout: 30 * time.Second, Telemetry: hub})
	if err != nil {
		t.Fatal(err)
	}
	ln := newPipeListener()
	go func() { _ = srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})

	c := ln.dial()
	defer c.Close()
	dec := wire.NewDecoder(c)
	buf := appendHello(t, nil, &wire.Hello{SessionID: 1, Spec: []byte("lastvalue")})
	if _, err := c.Write(buf); err != nil {
		t.Fatal(err)
	}
	if kind, _, err := dec.Next(); err != nil || kind != wire.KindAck {
		t.Fatalf("handshake: (%v, %v)", kind, err)
	}

	// Write a burst without reading: the worker blocks on its first
	// prediction write (unbuffered pipe), so the queue must overflow.
	const burst = 20
	for i := 0; i < burst; i++ {
		buf = wire.AppendSample(buf[:0], &wire.Sample{SessionID: 1, Seq: uint64(i), Uops: 1e8, Cycles: 9e7})
		if _, err := c.Write(buf); err != nil {
			t.Fatalf("sample #%d: %v", i, err)
		}
	}
	buf = wire.AppendDrain(buf[:0], &wire.Drain{SessionID: 1})
	if _, err := c.Write(buf); err != nil {
		t.Fatal(err)
	}

	// Now read everything back.
	var preds int
	var lastDropped uint64
	for {
		kind, payload, err := dec.Next()
		if err != nil {
			t.Fatalf("read-back: %v (after %d predictions)", err, preds)
		}
		if kind == wire.KindDrain {
			break
		}
		if kind != wire.KindPrediction {
			t.Fatalf("unexpected %v frame", kind)
		}
		var p wire.Prediction
		if err := wire.DecodePrediction(payload, &p); err != nil {
			t.Fatal(err)
		}
		preds++
		lastDropped = p.Dropped
	}
	if lastDropped == 0 {
		t.Fatal("no drops recorded despite a 20-sample burst into a depth-4 queue")
	}
	if uint64(preds)+lastDropped != burst {
		t.Fatalf("predictions (%d) + drops (%d) != samples sent (%d)", preds, lastDropped, burst)
	}
	if got := hub.PhasedDroppedSamples.Value(); got != lastDropped {
		t.Fatalf("drop counter = %d, echoed drops = %d; must agree", got, lastDropped)
	}
}

// TestSessionStateStrings pins the SessionState taxonomy.
func TestSessionStateStrings(t *testing.T) {
	want := map[SessionState]string{
		StateNegotiating: "negotiating",
		StateOpen:        "open",
		StateDraining:    "draining",
		StateClosed:      "closed",
	}
	for s, name := range want {
		if s.String() != name {
			t.Errorf("%d.String() = %q, want %q", s, s.String(), name)
		}
		if !s.Valid() {
			t.Errorf("%v.Valid() = false", s)
		}
	}
	if bogus := SessionState(99); bogus.Valid() || bogus.String() == "" {
		t.Error("SessionState(99) must be invalid but printable")
	}
}

// TestSampleRingDropOldest pins the eviction policy at the unit level.
func TestSampleRingDropOldest(t *testing.T) {
	r := newSampleRing(3)
	var dropped int
	for i := 0; i < 5; i++ {
		dropped += r.push(wire.Sample{Seq: uint64(i)})
	}
	if dropped != 2 {
		t.Fatalf("dropped = %d, want 2", dropped)
	}
	var got []uint64
	for {
		s, ok := r.pop()
		if !ok {
			break
		}
		got = append(got, s.Seq)
	}
	if len(got) != 3 || got[0] != 2 || got[1] != 3 || got[2] != 4 {
		t.Fatalf("surviving seqs = %v, want [2 3 4] (oldest evicted first)", got)
	}
}

// TestDrainerRunsOnceInOrder covers the process-level drain helper.
func TestDrainerRunsOnceInOrder(t *testing.T) {
	var order []string
	mk := func(name string, err error) Drainable {
		return DrainFunc(func(ctx context.Context) error {
			order = append(order, name)
			return err
		})
	}
	boom := errors.New("boom")
	d := NewDrainer(time.Second, mk("a", nil), nil, mk("b", boom))
	if err := d.Drain(); !errors.Is(err, boom) {
		t.Fatalf("Drain err = %v, want boom", err)
	}
	if err := d.Drain(); !errors.Is(err, boom) {
		t.Fatalf("second Drain err = %v, want cached boom", err)
	}
	if len(order) != 2 || order[0] != "a" || order[1] != "b" {
		t.Fatalf("drain order = %v, want [a b] exactly once", order)
	}
}
