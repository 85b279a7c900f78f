package serve

import (
	"context"
	"net"
	"strings"
	"testing"
	"time"

	"hetsched/internal/faults"
	"hetsched/internal/leakcheck"
)

func startTestServer(t *testing.T, d *Daemon, cfg ServerConfig) (*Server, string) {
	t.Helper()
	s := NewServer(d, cfg)
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, addr
}

func TestServerRoundTrip(t *testing.T) {
	d := newTestDaemon(t, 4, okSource(4), func() (uint64, error) { return 9, nil }, Config{})
	_, addr := startTestServer(t, d, ServerConfig{})
	c, err := Dial(context.Background(), addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	resp, err := c.Plan(context.Background(), PlanRequest{ID: 11, P: 4, Kind: PatternUniform,
		Bytes: 2048, DeadlineMS: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.OK || resp.Status != PlanServed || resp.ID != 11 {
		t.Fatalf("round trip failed: %+v", resp)
	}
	if resp.Generation != 9 || resp.Health != "ok" {
		t.Fatalf("served payload wrong: %+v", resp)
	}

	stats, err := c.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !stats.OK || stats.Stats == nil || stats.Stats.Served != 1 {
		t.Fatalf("stats reply wrong: %+v", stats)
	}
}

func TestServerRejectsUnknownOpAndGarbage(t *testing.T) {
	d := newTestDaemon(t, 4, okSource(4), nil, Config{})
	_, addr := startTestServer(t, d, ServerConfig{})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	send := func(line string) PlanResponse {
		t.Helper()
		if _, err := conn.Write([]byte(line + "\n")); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 1<<16)
		if err := conn.SetReadDeadline(time.Now().Add(2 * time.Second)); err != nil {
			t.Fatal(err)
		}
		n, err := conn.Read(buf)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := ParsePlanResponse(buf[:n])
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	if resp := send(`{"op":"conga"}`); resp.OK || !strings.Contains(resp.Error, "unknown op") {
		t.Fatalf("unknown op: %+v", resp)
	}
	if resp := send(`{]`); resp.OK || resp.Error == "" {
		t.Fatalf("garbage line: %+v", resp)
	}
	// The connection survives bad requests: a valid one still works.
	if resp := send(`{"op":"plan","p":4,"kind":"uniform","bytes":64,"deadline_ms":2000}`); !resp.OK {
		t.Fatalf("valid request after garbage: %+v", resp)
	}
}

// TestServerDrainServesConnectedClient: a client connected when the
// drain starts still gets explicit answers for requests in the drain
// window; once the drain completes, new dials are refused.
func TestServerDrainServesConnectedClient(t *testing.T) {
	d := newTestDaemon(t, 4, okSource(4), nil, Config{DrainTimeout: 100 * time.Millisecond})
	s, addr := startTestServer(t, d, ServerConfig{})
	c, err := Dial(context.Background(), addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if resp, err := c.Plan(context.Background(), PlanRequest{P: 4, Kind: PatternUniform,
		DeadlineMS: 2000}); err != nil || !resp.OK {
		t.Fatalf("pre-drain request failed: %v %+v", err, resp)
	}

	drained := make(chan error)
	go func() { drained <- s.Drain(500 * time.Millisecond) }()

	// Requests racing the drain resolve explicitly: either a served
	// plan (still before the daemon drained), a draining response, or a
	// clean connection teardown once the server finished — never a hang.
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := c.Plan(context.Background(), PlanRequest{P: 4, Kind: PatternUniform,
			DeadlineMS: 200})
		if err != nil {
			break // server wound the connection down; drain is finishing
		}
		if resp.Status != PlanServed && resp.Status != PlanDraining {
			t.Fatalf("mid-drain request resolved as %+v", resp)
		}
		if resp.Status == PlanDraining {
			break
		}
	}
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	if _, err := Dial(context.Background(), addr, 200*time.Millisecond); err == nil {
		t.Fatal("dial succeeded after drain")
	}
}

// TestServerDisconnectsSlowClient: a client that drains its socket at
// a trickle cannot hold a serving goroutine hostage — the write bound,
// min(IdleTimeout, wire.WriteTimeout), severs the connection, and the
// server still winds down promptly afterwards.
func TestServerDisconnectsSlowClient(t *testing.T) {
	d := newTestDaemon(t, 4, okSource(4), nil, Config{})
	inj := faults.NewSlowClientInjector(faults.SlowClientConfig{
		ChunkBytes: 1, Pause: 10 * time.Millisecond})
	s, addr := startTestServer(t, d, ServerConfig{
		IdleTimeout: 50 * time.Millisecond,
		WrapConn:    inj.Wrap,
	})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A served response is a few hundred bytes: at 100 B/s it cannot
	// beat a 50ms write bound, so the server must cut us off.
	if _, err := conn.Write([]byte(`{"op":"plan","p":4,"kind":"uniform","deadline_ms":2000}` + "\n")); err != nil {
		t.Fatal(err)
	}
	if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1<<16)
	sawClose := false
	for {
		if _, err := conn.Read(buf); err != nil {
			sawClose = true
			break
		}
	}
	if !sawClose {
		t.Fatal("server kept feeding a slow client")
	}
	if inj.Conns() == 0 {
		t.Fatal("injector never wrapped the connection")
	}
	closed := make(chan error, 1)
	go func() { closed <- s.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server close hung after a slow client")
	}
}

// TestServerDrainSlowReader: a client that reads its plan response at
// 10 B/s must not hold Drain past its grace. The drain deadline caps
// the response write as well as the next read, so Drain(200ms) returns
// well before the 10 s write bound, with every goroutine joined.
func TestServerDrainSlowReader(t *testing.T) {
	leakcheck.Check(t, func() {
		d := newTestDaemon(t, 4, okSource(4), nil, Config{})
		inj := faults.NewSlowClientInjector(faults.SlowClientConfig{
			ChunkBytes: 1, Pause: 100 * time.Millisecond})
		s := NewServer(d, ServerConfig{WrapConn: inj.Wrap})
		addr, err := s.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if _, err := conn.Write([]byte(`{"op":"plan","p":4,"kind":"uniform","deadline_ms":2000}` + "\n")); err != nil {
			t.Fatal(err)
		}
		// Wait for the first trickled byte: the handler is now writing.
		if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Read(make([]byte, 1)); err != nil {
			t.Fatal(err)
		}
		begin := time.Now()
		if err := s.Drain(200 * time.Millisecond); err != nil {
			t.Errorf("drain: %v", err)
		}
		if took := time.Since(begin); took > 2*time.Second {
			t.Errorf("Drain(200ms) took %v with a slow-reading client", took)
		}
	})
}

func TestServerCloseIdempotentAndNilSafe(t *testing.T) {
	var s *Server
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Drain(time.Millisecond); err == nil {
		t.Fatal("nil server drain should refuse")
	}
	if s.Addr() != "" {
		t.Fatal("nil server has an address")
	}
	d := newTestDaemon(t, 4, okSource(4), nil, Config{})
	real := NewServer(d, ServerConfig{})
	if _, err := real.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	if err := real.Close(); err != nil {
		t.Fatal(err)
	}
	if err := real.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := real.Listen("127.0.0.1:0"); err == nil {
		t.Fatal("closed server accepted a new Listen")
	}
}
