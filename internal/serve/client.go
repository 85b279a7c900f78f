package serve

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"hetsched/internal/obs"
	"hetsched/internal/wire"
)

// Client is a minimal plan-service client: one connection, one
// request/response in flight at a time. The mutex is the framing lock
// — it serializes whole request/response exchanges on the shared
// connection, which is exactly the JSON-line protocol's unit of
// framing, so the network I/O inside it is the point, not an accident
// (same convention as directory.Client).
type Client struct {
	timeout time.Duration

	mu   sync.Mutex
	conn net.Conn
	sc   *bufio.Scanner
}

// Dial connects to a plan-service daemon. timeout bounds the dial and
// each subsequent request round trip (0 selects 5s); ctx can cut the
// dial short and carries trace correlation for subsequent requests.
func Dial(ctx context.Context, addr string, timeout time.Duration) (*Client, error) {
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	if ctx == nil {
		ctx = context.Background()
	}
	dialer := net.Dialer{Timeout: timeout}
	conn, err := dialer.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("serve: dial %s: %w", addr, err)
	}
	return &Client{timeout: timeout, conn: conn, sc: wire.NewScanner(conn)}, nil
}

// Plan sends one plan request and waits for its response. The op field
// is filled in; other fields are the caller's. When ctx carries a
// trace (obs.WithTrace) and the request has none, the trace ID rides
// the wire so the daemon's telemetry correlates with the caller's.
func (c *Client) Plan(ctx context.Context, req PlanRequest) (PlanResponse, error) {
	if c == nil {
		return PlanResponse{}, fmt.Errorf("serve: nil client")
	}
	req.Op = OpPlan
	if req.Trace == "" {
		req.Trace = obs.FormatTraceID(obs.TraceFrom(ctx).TraceID)
	}
	return c.roundTrip(ctx, req)
}

// Stats fetches the daemon's serving counters.
func (c *Client) Stats(ctx context.Context) (PlanResponse, error) {
	if c == nil {
		return PlanResponse{}, fmt.Errorf("serve: nil client")
	}
	return c.roundTrip(ctx, PlanRequest{Op: OpServeStats})
}

func (c *Client) roundTrip(ctx context.Context, req PlanRequest) (PlanResponse, error) {
	line, err := EncodePlanRequest(req)
	if err != nil {
		return PlanResponse{}, err
	}
	budget := c.timeout
	if req.DeadlineMS > 0 {
		// Wait for the server's verdict on the full client budget plus
		// slack for the network: the server resolves every admitted
		// request by its deadline, so giving up earlier than the server
		// would turn explicit outcomes into dropped connections.
		budget = time.Duration(req.DeadlineMS)*time.Millisecond + c.timeout
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn == nil {
		return PlanResponse{}, fmt.Errorf("serve: client is closed")
	}
	dl := wallClock().Add(budget)
	if ctx != nil {
		// A caller deadline tighter than the protocol budget wins.
		if cd, ok := ctx.Deadline(); ok && cd.Before(dl) {
			dl = cd
		}
	}
	//hetvet:ignore lockio the mutex is the framing lock; see type comment
	if err := c.conn.SetDeadline(dl); err != nil {
		return PlanResponse{}, err
	}
	//hetvet:ignore lockio the mutex is the framing lock; see type comment
	if _, err := c.conn.Write(line); err != nil {
		return PlanResponse{}, fmt.Errorf("serve: write: %w", err)
	}
	//hetvet:ignore lockio the mutex is the framing lock; see type comment
	if !c.sc.Scan() {
		if err := c.sc.Err(); err != nil {
			return PlanResponse{}, fmt.Errorf("serve: read: %w", err)
		}
		return PlanResponse{}, fmt.Errorf("serve: connection closed by server")
	}
	return ParsePlanResponse(c.sc.Bytes())
}

// Close tears down the connection. Idempotent.
func (c *Client) Close() error {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	conn := c.conn
	c.conn = nil
	c.mu.Unlock()
	if conn == nil {
		return nil
	}
	return conn.Close()
}
