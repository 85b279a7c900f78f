package directory

import (
	"bytes"
	"net"
	"sync"
	"testing"
	"time"

	"hetsched/internal/leakcheck"
	"hetsched/internal/netmodel"
)

func drainTestStore(t *testing.T) *Store {
	t.Helper()
	perf := netmodel.NewPerf(3)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if i != j {
				perf.Set(i, j, netmodel.PairPerf{Latency: 1e-3, Bandwidth: 1e6})
			}
		}
	}
	store, err := NewStore(perf, nil)
	if err != nil {
		t.Fatal(err)
	}
	return store
}

// TestServerDrainServesConnectedClient is the signal-time contract:
// a client connected when the drain begins keeps being served for the
// grace window instead of dying mid-frame, new connections are refused
// immediately, and Drain returns once the window closes.
func TestServerDrainServesConnectedClient(t *testing.T) {
	srv := NewServer(drainTestStore(t))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cl, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Version(); err != nil {
		t.Fatalf("pre-drain request: %v", err)
	}

	drained := make(chan error, 1)
	go func() { drained <- srv.Drain(time.Second) }()

	// The connected client is still served during the grace window.
	// Retry briefly: the drain goroutine may not have started yet, and
	// the request must succeed *during* the drain either way.
	deadline := time.Now().Add(500 * time.Millisecond)
	for {
		if _, err = cl.Version(); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("in-flight client not served during drain: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// New connections are refused once the listener is down.
	refusedBy := time.Now().Add(2 * time.Second)
	for {
		if _, err := Dial(addr, 200*time.Millisecond); err != nil {
			break
		}
		if time.Now().After(refusedBy) {
			t.Fatal("listener still accepting during drain")
		}
		time.Sleep(10 * time.Millisecond)
	}

	select {
	case err := <-drained:
		if err != nil {
			t.Fatalf("drain: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("drain did not return after the grace window")
	}

	// The drained server no longer serves the old connection.
	if _, err := cl.Version(); err == nil {
		t.Fatal("request succeeded after drain completed")
	}
}

// TestServerDrainIdempotentWithClose: Drain on an already-closed
// server is a no-op, and Close after Drain stays safe.
func TestServerDrainIdempotentWithClose(t *testing.T) {
	srv := NewServer(drainTestStore(t))
	if _, err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	if err := srv.Drain(50 * time.Millisecond); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("close after drain: %v", err)
	}
	if err := srv.Drain(50 * time.Millisecond); err != nil {
		t.Fatalf("drain after close: %v", err)
	}
}

// startedConn reports its first Write on started.
type startedConn struct {
	net.Conn
	once    *sync.Once
	started chan struct{}
}

func (c startedConn) Write(b []byte) (int, error) {
	c.once.Do(func() { close(c.started) })
	return c.Conn.Write(b)
}

// TestServerDrainNonReadingClient: a client that pipelines snapshot
// requests for a P=200 table and never reads fills both socket buffers
// and leaves its handler blocked in Write. Drain must still return
// within its grace, and every server goroutine must exit.
func TestServerDrainNonReadingClient(t *testing.T) {
	const p = 200
	perf := netmodel.NewPerf(p)
	for i := 0; i < p; i++ {
		for j := 0; j < p; j++ {
			if i != j {
				perf.Set(i, j, netmodel.PairPerf{Latency: 1e-3 + float64(i)*1e-6, Bandwidth: 1e6 + float64(j)})
			}
		}
	}
	store, err := NewStore(perf, nil)
	if err != nil {
		t.Fatal(err)
	}
	leakcheck.Check(t, func() {
		srv := NewServer(store)
		started := make(chan struct{})
		var once sync.Once
		srv.SetConnWrapper(func(c net.Conn) net.Conn {
			return startedConn{Conn: c, once: &once, started: started}
		})
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		// Far more response bytes than loopback socket buffers hold.
		if _, err := conn.Write(bytes.Repeat([]byte(`{"op":"snapshot"}`+"\n"), 64)); err != nil {
			t.Fatal(err)
		}
		<-started

		drained := make(chan error, 1)
		begin := time.Now()
		go func() { drained <- srv.Drain(200 * time.Millisecond) }()
		select {
		case err := <-drained:
			if err != nil {
				t.Errorf("drain: %v", err)
			}
			if took := time.Since(begin); took > 2*time.Second {
				t.Errorf("Drain(200ms) took %v with a non-reading client", took)
			}
		case <-time.After(2 * time.Second):
			t.Error("Drain(200ms) still blocked after 2s by a client that never reads")
			conn.Close() // unwedge the handler so the drain can finish
			<-drained
		}
	})
}
