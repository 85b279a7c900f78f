package directory

import (
	"fmt"
	"net"
	"sync"
	"time"

	"hetsched/internal/calib"
	"hetsched/internal/netmodel"
	"hetsched/internal/obs"
	"hetsched/internal/wire"
)

// Server exposes a Store over TCP with the JSON-line protocol. The
// connection handling — accept loop, deadlines, drain, panic recovery —
// is a wire.Server; this type answers the directory ops.
type Server struct {
	store *Store
	wire  wire.Server

	mu         sync.Mutex
	calibrator *calib.Calibrator

	// resolved telemetry instruments; all nil when metrics are off.
	mReqs    map[string]*obs.Counter // by op, plus "invalid"
	mVersion *obs.Gauge
}

// NewServer wraps a store.
func NewServer(store *Store) *Server {
	s := &Server{store: store}
	s.wire = wire.Server{Name: "directory", Handler: s.serveLine}
	return s
}

// SetIdleTimeout makes the server drop connections that stay silent
// longer than d, so dead clients cannot pin serving goroutines. Zero
// selects wire.DefaultIdleTimeout (2 minutes). Call before Listen.
func (s *Server) SetIdleTimeout(d time.Duration) { s.wire.IdleTimeout = d }

// SetMetrics registers the server's instruments — accepted connections,
// handled requests by op, the store's version gauge, and recovered
// handler panics — in reg. Call before Listen; a nil registry leaves
// metrics disabled (every hook is then a nil-pointer no-op).
func (s *Server) SetMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	s.wire.Metrics = reg
	s.wire.OnConn = reg.Counter(obs.MetricDirectoryServerConns,
		"Connections accepted by the directory server.").Inc
	s.mReqs = map[string]*obs.Counter{}
	for _, op := range []string{opQuery, opSnapshot, opUpdatePair, opVersion, OpCalibrate, "invalid"} {
		s.mReqs[op] = reg.Counter(obs.MetricDirectoryServerRequests,
			"Requests handled by the directory server, by op.", obs.L("op", op))
	}
	s.mVersion = reg.Gauge(obs.MetricDirectoryStoreVersion,
		"Current version of the directory store.")
	s.mVersion.Set(float64(s.store.Version()))
}

// countRequest records one handled request; ops outside the protocol
// count as "invalid".
func (s *Server) countRequest(op string) {
	if s.mReqs == nil {
		return
	}
	c, ok := s.mReqs[op]
	if !ok {
		c = s.mReqs["invalid"]
	}
	c.Inc()
}

// SetCalibrator attaches a server-side calibrator: OpCalibrate
// requests carrying raw Samples are fed through it and whatever
// estimates clear its confidence gate are folded into the store, so
// thin clients can report measurements without running their own
// fitter. Without one, samples are counted as rejected (updates still
// apply). Call before Listen; nil detaches.
func (s *Server) SetCalibrator(cal *calib.Calibrator) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.calibrator = cal
}

// SetConnWrapper installs a hook applied to every accepted connection
// before serving begins — the seam the chaos harness uses to inject
// drops, stalls, and partial writes (see internal/faults). Call before
// Listen; the wrapper's Close must close the underlying connection.
func (s *Server) SetConnWrapper(wrap func(net.Conn) net.Conn) { s.wire.WrapConn = wrap }

// Listen starts accepting connections on addr (e.g. "127.0.0.1:0")
// and returns the bound address. Serving happens on background
// goroutines; call Drain or Close to stop.
func (s *Server) Listen(addr string) (string, error) { return s.wire.Listen(addr) }

// Drain stops accepting at once and keeps serving connected clients
// until grace elapses, then closes (wire.Server.Drain).
func (s *Server) Drain(grace time.Duration) error { return s.wire.Drain(grace) }

// Close stops the listener and every connection and waits for the
// serving goroutines. It is safe to call more than once.
func (s *Server) Close() error { return s.wire.Close() }

// serveLine answers one request line.
func (s *Server) serveLine(line []byte) any {
	req, err := parseRequest(line)
	switch {
	case err != nil:
		return response{Error: err.Error()}
	case req.Op == OpCalibrate:
		// The calibration feed carries slice payloads the scalar
		// request union cannot hold, so the raw line is re-parsed
		// into its own frame type.
		return s.handleCalibrate(line)
	default:
		return s.handle(req)
	}
}

func (s *Server) handle(req request) response {
	s.countRequest(req.Op)
	switch req.Op {
	case opQuery:
		pp, v, err := s.store.Query(req.Src, req.Dst)
		if err != nil {
			return response{Error: err.Error()}
		}
		s.mVersion.Set(float64(v))
		return response{OK: true, Version: v, Latency: pp.Latency, Bandwidth: pp.Bandwidth}
	case opSnapshot:
		perf, v := s.store.Snapshot()
		s.mVersion.Set(float64(v))
		n := perf.N()
		lat := make([][]float64, n)
		bw := make([][]float64, n)
		for i := 0; i < n; i++ {
			lat[i] = make([]float64, n)
			bw[i] = make([]float64, n)
			for j := 0; j < n; j++ {
				pp := perf.At(i, j)
				lat[i][j] = pp.Latency
				bw[i][j] = pp.Bandwidth
			}
		}
		return response{OK: true, Version: v, N: n, Names: s.store.Names(), LatTable: lat, BWTable: bw}
	case opUpdatePair:
		v, err := s.store.UpdatePair(req.Src, req.Dst, netmodel.PairPerf{Latency: req.Latency, Bandwidth: req.Bandwidth})
		if err != nil {
			return response{Error: err.Error()}
		}
		s.mVersion.Set(float64(v))
		return response{OK: true, Version: v}
	case opVersion:
		v := s.store.Version()
		s.mVersion.Set(float64(v))
		return response{OK: true, Version: v}
	default:
		return response{Error: fmt.Sprintf("unknown op %q", req.Op)}
	}
}

// handleCalibrate serves one OpCalibrate request. Applied counts table
// writes; Rejected counts request entries that did not make it into the
// table — updates that failed the bounds boundary, samples the attached
// calibrator's rejection gauntlet threw out, and samples received by a
// server with no calibrator to fit them.
func (s *Server) handleCalibrate(line []byte) response {
	s.countRequest(OpCalibrate)
	creq, err := ParseCalibRequest(line)
	if err != nil {
		return response{Error: err.Error()}
	}
	applied, rejected, v := s.store.ApplyCalibration(creq.Updates)
	s.mu.Lock()
	cal := s.calibrator
	s.mu.Unlock()
	switch {
	case cal != nil && len(creq.Samples) > 0:
		rep := cal.ObserveBatch(creq.Samples)
		rejected += rep.Rejected()
		a, r, v2 := s.store.ApplyCalibration(cal.Updates())
		applied += a
		rejected += r
		v = v2
	case len(creq.Samples) > 0:
		rejected += len(creq.Samples)
	}
	s.mVersion.Set(float64(v))
	return response{OK: true, Version: v, Applied: applied, Rejected: rejected}
}
