package faults

import (
	"net"
	"sync"
	"time"
)

// SlowClientConfig shapes a slow-consumer fault: a peer that accepts a
// connection but reads (or writes) at a trickle. This is the overload
// case admission control alone cannot fix — a server that writes to a
// client who never drains its socket will block in Write unless it
// arms write deadlines, which is exactly the behavior the serve
// package's tests pin with this injector.
type SlowClientConfig struct {
	// ChunkBytes is how many bytes each Read/Write moves before
	// pausing; 0 selects 1 — the slowest legal trickle.
	ChunkBytes int
	// Pause is the delay injected between chunks; 0 selects 5ms.
	Pause time.Duration
	// PauseWrites/PauseReads select which directions trickle. Both
	// false selects writes only (the classic slow consumer as seen from
	// the peer dialing out).
	PauseWrites bool
	PauseReads  bool
}

func (cfg SlowClientConfig) withDefaults() SlowClientConfig {
	if cfg.ChunkBytes <= 0 {
		cfg.ChunkBytes = 1
	}
	if cfg.Pause <= 0 {
		cfg.Pause = 5 * time.Millisecond
	}
	if !cfg.PauseWrites && !cfg.PauseReads {
		cfg.PauseWrites = true
	}
	return cfg
}

// SlowClientInjector wraps connections so they trickle. Unlike
// ConnInjector it injects no failures at all: every byte arrives
// eventually, just slowly — the pathological-but-legal peer that only
// deadlines defend against.
type SlowClientInjector struct {
	cfg SlowClientConfig

	mu    sync.Mutex
	conns int
}

// NewSlowClientInjector builds an injector.
func NewSlowClientInjector(cfg SlowClientConfig) *SlowClientInjector {
	return &SlowClientInjector{cfg: cfg.withDefaults()}
}

// Conns reports how many connections have been wrapped.
func (in *SlowClientInjector) Conns() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.conns
}

// Wrap throttles conn per the injector's config. It satisfies the same
// seam as ConnInjector.Wrap (wire.Server.WrapConn).
func (in *SlowClientInjector) Wrap(conn net.Conn) net.Conn {
	in.mu.Lock()
	in.conns++
	in.mu.Unlock()
	return &slowConn{Conn: conn, cfg: in.cfg}
}

// slowConn moves ChunkBytes per operation and sleeps between chunks.
// Deadlines set on the underlying conn still fire mid-trickle because
// each chunk is a real Read/Write on the wrapped conn.
type slowConn struct {
	net.Conn
	cfg SlowClientConfig
}

func (c *slowConn) Read(p []byte) (int, error) {
	if !c.cfg.PauseReads {
		return c.Conn.Read(p)
	}
	if len(p) > c.cfg.ChunkBytes {
		p = p[:c.cfg.ChunkBytes]
	}
	time.Sleep(c.cfg.Pause)
	return c.Conn.Read(p)
}

func (c *slowConn) Write(p []byte) (int, error) {
	if !c.cfg.PauseWrites {
		return c.Conn.Write(p)
	}
	written := 0
	for written < len(p) {
		end := written + c.cfg.ChunkBytes
		if end > len(p) {
			end = len(p)
		}
		time.Sleep(c.cfg.Pause)
		n, err := c.Conn.Write(p[written:end])
		written += n
		if err != nil {
			return written, err
		}
	}
	return written, nil
}
