package serve

import (
	"context"
	"errors"
	"fmt"
	"net"
	"time"

	"hetsched/internal/wire"
)

// ServerConfig tunes the TCP front in front of a Daemon.
type ServerConfig struct {
	// IdleTimeout drops connections that send no request for this long,
	// and bounds each response write (capped at wire.WriteTimeout), so
	// slow or dead clients never pin a serving goroutine. 0 selects
	// wire.DefaultIdleTimeout (2 minutes).
	IdleTimeout time.Duration
	// WrapConn, when set, wraps every accepted connection — the chaos
	// seam for fault injectors.
	WrapConn func(net.Conn) net.Conn
}

// Server is the TCP front of the planning service: a wire.Server whose
// handler resolves plan-protocol lines against the Daemon. All
// admission decisions live in the Daemon; the per-connection defenses
// (idle and write deadlines, bounded drain, panic recovery) are
// wire.Server's.
type Server struct {
	daemon *Daemon
	wire   wire.Server
}

// NewServer wraps a daemon in a TCP front.
func NewServer(d *Daemon, cfg ServerConfig) *Server {
	s := &Server{daemon: d}
	s.wire = wire.Server{
		Name:        "serve",
		Handler:     func(line []byte) any { return s.handle(line) },
		IdleTimeout: cfg.IdleTimeout,
		WrapConn:    cfg.WrapConn,
	}
	if d != nil {
		s.wire.OnConn, s.wire.Metrics = d.tel.conn, d.tel.m
	}
	return s
}

// Listen binds addr and starts accepting; it returns the bound address
// (useful with ":0") without blocking. Traces arrive per request on
// the wire (PlanRequest.Trace), not at bind time.
//
//hetvet:ignore tracectx the accept loop outlives any request; traces ride the wire protocol instead
func (s *Server) Listen(addr string) (string, error) {
	if s == nil {
		return "", fmt.Errorf("serve: nil server")
	}
	return s.wire.Listen(addr)
}

// handle resolves one request line to one response.
func (s *Server) handle(line []byte) PlanResponse {
	req, err := ParsePlanRequest(line)
	if err != nil {
		return PlanResponse{Error: err.Error()}
	}
	switch req.Op {
	case OpPlan:
		// The wire carries the trace ID (req.Trace); the daemon binds it
		// onto the context in beginRequest.
		return s.daemon.Plan(context.Background(), req)
	case OpServeStats:
		resp := s.daemon.StatsResponse()
		resp.ID = req.ID
		return resp
	default:
		return PlanResponse{ID: req.ID,
			Error: fmt.Sprintf("serve: unknown op %q", req.Op)}
	}
}

// Addr returns the bound listen address, or "" before Listen.
func (s *Server) Addr() string {
	if s == nil {
		return ""
	}
	return s.wire.Addr()
}

// Drain shuts the service down gracefully: connected clients keep
// getting answers while the daemon drains its queued backlog under the
// daemon's drain timeout (new requests get explicit draining
// responses), then the listener closes and every serving goroutine is
// wound down under grace, even one writing to a client that has
// stopped reading. No request that was read off a socket goes
// unanswered. Safe to call alongside or after Close.
func (s *Server) Drain(grace time.Duration) error {
	if s == nil {
		return errors.New("serve: nil server")
	}
	s.daemon.Shutdown()
	return s.wire.Drain(grace)
}

// Close stops the daemon, then severs every connection and joins all
// serving goroutines. Idempotent.
func (s *Server) Close() error {
	if s == nil {
		return nil
	}
	s.daemon.Shutdown()
	return s.wire.Close()
}
