package wire

import (
	"fmt"
	"net"
	"sync"
	"time"

	"hetsched/internal/obs"
)

const (
	// DefaultIdleTimeout is the read wait selected by a zero
	// Server.IdleTimeout. There is no "never" setting: a silent peer
	// must not hold a serving goroutine forever.
	DefaultIdleTimeout = 2 * time.Minute
	// WriteTimeout caps each response write; the bound in force is the
	// smaller of this and the idle timeout.
	WriteTimeout = 10 * time.Second
)

// panicLine answers a request whose handler panicked. Both protocols
// parse it as an ordinary server error.
var panicLine = []byte(`{"ok":false,"error":"internal error"}` + "\n")

// Handler answers one request line (without its newline) with the
// value to send back as one JSON line. The line is only valid for the
// duration of the call.
type Handler func(line []byte) any

// Server is a JSON-line TCP server: one goroutine per connection,
// exactly one response line per non-empty request line. Configure the
// exported fields before Listen; the zero value with a Handler is
// ready to use.
//
// The deadline rule: a read waits at most IdleTimeout, and each
// response write must finish within min(IdleTimeout, WriteTimeout).
// Once Drain begins, both are further capped at the absolute drain
// deadline, so no client — silent, slow, or chatty — holds a serving
// goroutine past it.
type Server struct {
	// Name labels this server's metrics ("directory", "serve").
	Name string
	// Handler resolves each request line.
	Handler Handler
	// IdleTimeout bounds the wait for the next request. Zero selects
	// DefaultIdleTimeout.
	IdleTimeout time.Duration
	// WrapConn, when set, wraps every accepted connection before
	// serving begins — the seam fault injectors use (internal/faults).
	// The wrapper's Close must close the underlying connection.
	WrapConn func(net.Conn) net.Conn
	// OnConn, when set, is called once per accepted connection.
	OnConn func()
	// Metrics receives the handler-panic counter; nil disables it.
	Metrics *obs.Registry

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]struct{}
	closed   bool
	draining bool
	drainDl  time.Time
	wg       sync.WaitGroup
}

// Listen starts accepting connections on addr (e.g. "127.0.0.1:0")
// and returns the bound address. Serving happens on background
// goroutines; Drain or Close stops them.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("%s: listen: %w", s.Name, err)
	}
	s.mu.Lock()
	if s.closed || s.draining {
		s.mu.Unlock()
		//hetvet:ignore errdiscard best-effort close of a listener that never served
		ln.Close()
		return "", fmt.Errorf("%s: server is shut down", s.Name)
	}
	s.listener = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop(ln)
	return ln.Addr().String(), nil
}

// Addr returns the bound listen address, or "" when not listening.
func (s *Server) Addr() string {
	s.mu.Lock()
	ln := s.listener
	s.mu.Unlock()
	if ln == nil {
		return ""
	}
	return ln.Addr().String()
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		if s.WrapConn != nil {
			conn = s.WrapConn(conn)
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			//hetvet:ignore errdiscard best-effort close of a connection that raced shutdown
			conn.Close()
			return
		}
		if s.conns == nil {
			s.conns = map[net.Conn]struct{}{}
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		if s.OnConn != nil {
			s.OnConn()
		}
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		//hetvet:ignore errdiscard a finished connection's close error is noise
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	idle := s.IdleTimeout
	if idle <= 0 {
		idle = DefaultIdleTimeout
	}
	write := min(idle, WriteTimeout)
	sc := NewScanner(conn)
	for {
		if err := s.armDeadline(conn.SetReadDeadline, idle); err != nil {
			return // connection already torn down
		}
		if !sc.Scan() {
			return // client hung up, idle deadline expired, or read error
		}
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		out, panicked := s.respond(line)
		if out == nil {
			return // the response could not be encoded
		}
		if err := s.armDeadline(conn.SetWriteDeadline, write); err != nil {
			return
		}
		if _, err := conn.Write(out); err != nil || panicked {
			return // slow or dead client, or a handler left in an unknown state
		}
	}
}

// respond runs the handler on one line and encodes its answer. A
// handler panic is recovered, counted, and answered with panicLine;
// panicked tells the caller to close the connection after sending it.
func (s *Server) respond(line []byte) (out []byte, panicked bool) {
	defer func() {
		if recover() != nil {
			s.Metrics.Counter(obs.MetricWireHandlerPanics,
				"Request handlers that panicked, by server.", obs.L("server", s.Name)).Inc()
			out, panicked = panicLine, true
		}
	}()
	out, err := EncodeLine(s.Handler(line))
	if err != nil {
		return nil, false
	}
	return out, false
}

// armDeadline applies a connection's next read or write deadline
// through set: d from now, capped during a drain at the absolute drain
// deadline. A drain that begins between the check and the set is
// caught by a re-check, so no deadline outlives the one Drain applied.
func (s *Server) armDeadline(set func(time.Time) error, d time.Duration) error {
	dl := time.Now().Add(d)
	s.mu.Lock()
	draining, drainDl := s.draining, s.drainDl
	s.mu.Unlock()
	if draining && drainDl.Before(dl) {
		dl = drainDl
	}
	if err := set(dl); err != nil || draining {
		return err
	}
	s.mu.Lock()
	draining, drainDl = s.draining, s.drainDl
	s.mu.Unlock()
	if draining && drainDl.Before(dl) {
		return set(drainDl)
	}
	return nil
}

// Drain shuts the server down gracefully: the listener closes at once,
// but connected clients keep being served until grace elapses, so a
// request in flight completes instead of dying mid-frame. Every live
// connection gets the absolute drain deadline for reads and writes
// alike, and the serve loop never arms one past it, so Drain returns
// within roughly grace even when a client has stopped reading. The
// final teardown is Close; Drain is safe alongside or after Close.
func (s *Server) Drain(grace time.Duration) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return s.Close()
	}
	s.draining = true
	s.drainDl = time.Now().Add(grace)
	dl := s.drainDl
	ln := s.listener
	s.listener = nil
	conns := s.liveConns()
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	for _, c := range conns {
		// Interrupt reads and writes blocked from before the drain
		// began; the serve loop re-applies the cap from here on.
		//hetvet:ignore errdiscard a torn-down connection is already on its way out
		c.SetDeadline(dl)
	}
	s.wg.Wait()
	if cerr := s.Close(); err == nil {
		err = cerr
	}
	return err
}

// Close stops the listener and every connection and waits for the
// serving goroutines to exit. It is idempotent. The mutex only guards
// the bookkeeping; every network teardown happens after unlocking so
// accept and serve goroutines never queue behind it. The listener's
// close error is returned; per-connection close errors are noise (each
// serving goroutine's deferred close races this one).
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return nil
	}
	s.closed = true
	ln := s.listener
	s.listener = nil
	conns := s.liveConns()
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	for _, c := range conns {
		//hetvet:ignore errdiscard racing the serving goroutine's own deferred close; either error is noise
		c.Close()
	}
	s.wg.Wait()
	return err
}

// liveConns snapshots the connection set. The caller holds s.mu.
func (s *Server) liveConns() []net.Conn {
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	return conns
}
