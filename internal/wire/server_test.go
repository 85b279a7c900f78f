package wire

import (
	"bufio"
	"bytes"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"hetsched/internal/leakcheck"
	"hetsched/internal/obs"
)

// echo answers {"ok":true,"echo":<line>}; the line "panic" panics and
// the line "big" answers with a 1 MiB payload.
func echo(line []byte) any {
	switch string(line) {
	case "panic":
		panic("handler bug")
	case "big":
		return map[string]any{"ok": true, "echo": strings.Repeat("x", 1<<20)}
	}
	return map[string]any{"ok": true, "echo": string(line)}
}

// closeWatch reports each wrapped connection's Close on closed.
func closeWatch(closed chan<- struct{}) func(net.Conn) net.Conn {
	return func(c net.Conn) net.Conn {
		return &watchedConn{Conn: c, closed: closed}
	}
}

type watchedConn struct {
	net.Conn
	once   sync.Once
	closed chan<- struct{}
}

func (c *watchedConn) Close() error {
	c.once.Do(func() { c.closed <- struct{}{} })
	return c.Conn.Close()
}

func listen(t *testing.T, s *Server) string {
	t.Helper()
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return addr
}

func dial(t *testing.T, addr string) (net.Conn, *bufio.Reader) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.SetDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	return conn, bufio.NewReader(conn)
}

// roundTrip sends line and returns the response line.
func roundTrip(t *testing.T, conn net.Conn, rd *bufio.Reader, line string) string {
	t.Helper()
	if _, err := conn.Write([]byte(line + "\n")); err != nil {
		t.Fatal(err)
	}
	resp, err := rd.ReadString('\n')
	if err != nil {
		t.Fatalf("reading answer to %q: %v", line, err)
	}
	return resp
}

// waitClosed fails t unless a watched connection closes within limit.
func waitClosed(t *testing.T, closed <-chan struct{}, limit time.Duration, what string) {
	t.Helper()
	select {
	case <-closed:
	case <-time.After(limit):
		t.Fatalf("server did not close the connection of %s within %v", what, limit)
	}
}

// TestServerRecoversHandlerPanic: a panicking handler answers the
// error line, closes only its own connection and bumps the counter;
// another connection keeps round-tripping throughout.
func TestServerRecoversHandlerPanic(t *testing.T) {
	leakcheck.Check(t, func() {
		reg := obs.New()
		s := &Server{Name: "test", Handler: echo, Metrics: reg}
		addr := listen(t, s)
		defer s.Close()

		good, goodRd := dial(t, addr)
		defer good.Close()
		bad, badRd := dial(t, addr)
		defer bad.Close()

		if got := roundTrip(t, good, goodRd, "a"); got != `{"echo":"a","ok":true}`+"\n" {
			t.Fatalf("echo answered %q", got)
		}
		if got := roundTrip(t, bad, badRd, "panic"); got != string(panicLine) {
			t.Fatalf("panicking handler answered %q, want %q", got, panicLine)
		}
		if _, err := badRd.ReadString('\n'); err == nil {
			t.Fatal("connection of the panicking request stayed open")
		}
		if got := roundTrip(t, good, goodRd, "b"); got != `{"echo":"b","ok":true}`+"\n" {
			t.Fatalf("other connection after the panic answered %q", got)
		}
		c := reg.Counter(obs.MetricWireHandlerPanics, "", obs.L("server", "test"))
		if v := c.Value(); v != 1 {
			t.Fatalf("panic counter = %d, want 1", v)
		}
	})
}

// TestServerDropsSilentClient: a connection that sends nothing is
// closed once IdleTimeout passes.
func TestServerDropsSilentClient(t *testing.T) {
	leakcheck.Check(t, func() {
		closed := make(chan struct{}, 1)
		s := &Server{Name: "test", Handler: echo, IdleTimeout: 50 * time.Millisecond, WrapConn: closeWatch(closed)}
		addr := listen(t, s)
		defer s.Close()
		conn, rd := dial(t, addr)
		defer conn.Close()
		waitClosed(t, closed, 2*time.Second, "a silent client")
		if _, err := rd.ReadString('\n'); err == nil {
			t.Fatal("silent client got data")
		}
	})
}

// TestServerCutsOffNonReadingClient: a client that pipelines requests
// for large answers and never reads is disconnected within the write
// bound, min(IdleTimeout, WriteTimeout).
func TestServerCutsOffNonReadingClient(t *testing.T) {
	leakcheck.Check(t, func() {
		closed := make(chan struct{}, 1)
		s := &Server{Name: "test", Handler: echo, IdleTimeout: 50 * time.Millisecond, WrapConn: closeWatch(closed)}
		addr := listen(t, s)
		defer s.Close()
		conn, _ := dial(t, addr)
		defer conn.Close()
		if _, err := conn.Write(bytes.Repeat([]byte("big\n"), 16)); err != nil {
			t.Fatal(err)
		}
		waitClosed(t, closed, 2*time.Second, "a client that never reads")
	})
}

// TestServerDrainNonReadingClient: with the default 2-minute idle
// timeout (so a 10 s write bound), a client that pipelines requests
// for large answers and never reads leaves its handler blocked in
// Write. Drain must still return within its grace, with every server
// goroutine joined.
func TestServerDrainNonReadingClient(t *testing.T) {
	leakcheck.Check(t, func() {
		s := &Server{Name: "test", Handler: echo}
		addr := listen(t, s)
		conn, rd := dial(t, addr)
		defer conn.Close()
		if got := roundTrip(t, conn, rd, "a"); !strings.Contains(got, `"echo":"a"`) {
			t.Fatalf("echo answered %q", got)
		}
		// Far more response bytes than loopback socket buffers hold.
		if _, err := conn.Write(bytes.Repeat([]byte("big\n"), 64)); err != nil {
			t.Fatal(err)
		}
		// Let the handler fill the socket buffers and block in Write.
		time.Sleep(100 * time.Millisecond)
		begin := time.Now()
		if err := s.Drain(200 * time.Millisecond); err != nil {
			t.Errorf("drain: %v", err)
		}
		if took := time.Since(begin); took > 2*time.Second {
			t.Errorf("Drain(200ms) took %v with a client that never reads", took)
		}
	})
}

// TestServerCloseIdempotent: Close twice is fine, Drain after Close is
// a no-op, and a closed server refuses a new Listen.
func TestServerCloseIdempotent(t *testing.T) {
	s := &Server{Name: "test", Handler: echo}
	listen(t, s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if err := s.Drain(time.Millisecond); err != nil {
		t.Fatalf("drain after close: %v", err)
	}
	if s.Addr() != "" {
		t.Fatal("closed server still reports an address")
	}
	if _, err := s.Listen("127.0.0.1:0"); err == nil {
		t.Fatal("closed server accepted a new Listen")
	}
}
