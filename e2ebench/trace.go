package main

import (
	"bytes"
	"encoding/json"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"hetsched"
)

// span is one timed call the benchmark made into a layer. Spans of one
// op share the op's ID as their Parent; spans the benchmark cannot tie
// to an op (work a daemon worker does on some request's behalf) carry
// Parent 0.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder's origin
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps the spans of one traced pass in memory; they are
// written out once the pass ends. A nil *recorder is the untraced
// pass: no wrapper is installed and nothing is recorded.
type recorder struct {
	origin time.Time
	nextID atomic.Uint64
	cur    atomic.Uint64 // the op a sequential workload is running

	mu    sync.Mutex
	spans []span
	mark  int // spans before mark belong to warm-up
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

// newOp draws the ID of a sequential workload's next op and makes it
// the parent of the layer spans recorded until the next newOp.
func (r *recorder) newOp() uint64 {
	id := r.nextID.Add(1)
	r.cur.Store(id)
	return id
}

func (r *recorder) add(id, parent uint64, layer, name string, start, end time.Time) {
	s := span{ID: id, Parent: parent, Layer: layer, Name: name,
		Start: int64(start.Sub(r.origin)), End: int64(end.Sub(r.origin))}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// op records the root span of one op.
func (r *recorder) op(id uint64, name string, start, end time.Time) {
	r.add(id, 0, "op", name, start, end)
}

// child records a layer span under the current op.
func (r *recorder) child(layer, name string, start, end time.Time) {
	r.add(r.nextID.Add(1), r.cur.Load(), layer, name, start, end)
}

// startMeasure marks the end of warm-up: only later spans count.
func (r *recorder) startMeasure() {
	r.mu.Lock()
	r.mark = len(r.spans)
	r.mu.Unlock()
}

// durations returns the measured spans' durations for one layer call.
func (r *recorder) durations(layer, name string) []time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []time.Duration
	for _, s := range r.spans[r.mark:] {
		if s.Layer == layer && s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

// write stores every span and the per-layer table as JSON under dir.
func (r *recorder) write(dir, base string, layers []metric) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	r.mu.Lock()
	doc := struct {
		Spans  []span   `json:"spans"`
		Layers []metric `json:"per_layer"`
	}{r.spans, layers}
	b, err := json.Marshal(doc)
	r.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, base+".json"), b, 0o644)
}

// timeSource wraps a performance source with a directory span per
// snapshot.
func (r *recorder) timeSource(src hetsched.CommSource) hetsched.CommSource {
	return func() (*hetsched.Perf, error) {
		start := time.Now()
		p, err := src()
		r.child("directory", "snapshot", start, time.Now())
		return p, err
	}
}

// timedScheduler wraps the communicator's one-shot scheduler. It is
// never used as a RepairScheduler: the warm planner type-switches on
// the concrete repair scheduler, so a wrapper there would turn every
// warm replan cold.
type timedScheduler struct {
	inner hetsched.Scheduler
	rec   *recorder
}

func (t timedScheduler) Name() string { return t.inner.Name() }

func (t timedScheduler) Schedule(m *hetsched.Matrix) (*hetsched.Result, error) {
	start := time.Now()
	res, err := t.inner.Schedule(m)
	t.rec.child("sched", "schedule", start, time.Now())
	return res, err
}

// timeSink wraps a calibration sink with a directory span per push.
func (r *recorder) timeSink(sink func([]hetsched.CalibUpdate) error) func([]hetsched.CalibUpdate) error {
	return func(u []hetsched.CalibUpdate) error {
		start := time.Now()
		err := sink(u)
		r.child("directory", "calibrate_push", start, time.Now())
		return err
	}
}

// dirTap counts the directory server's traffic per connection and
// attributes response bytes to the snapshot op that asked for them.
type dirTap struct {
	mu            sync.Mutex
	snapshotBytes int64
	snapshots     int
}

func (t *dirTap) wrap(c net.Conn) net.Conn { return &dirConn{Conn: c, t: t} }

func (t *dirTap) counts() (bytes int64, snapshots int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.snapshotBytes, t.snapshots
}

type dirConn struct {
	net.Conn
	t        *dirTap
	snapshot bool // the request being answered is a snapshot
}

func (c *dirConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	if n > 0 {
		c.snapshot = bytes.Contains(b[:n], []byte(`"snapshot"`))
	}
	return n, err
}

func (c *dirConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	if c.snapshot {
		c.t.mu.Lock()
		c.t.snapshotBytes += int64(n)
		if n > 0 && b[n-1] == '\n' {
			c.t.snapshots++
		}
		c.t.mu.Unlock()
	}
	return n, err
}

// planTap wraps the plan server's connections: for each request it
// records its residence, from the read that completed the request line
// to the end of the response write, keyed by the response ID, together
// with the request and response byte counts.
type planTap struct {
	mu        sync.Mutex
	reqBytes  int64
	respBytes int64
	residence map[uint64][2]time.Time
}

func newPlanTap() *planTap { return &planTap{residence: map[uint64][2]time.Time{}} }

func (t *planTap) wrap(c net.Conn) net.Conn { return &planConn{Conn: c, t: t} }

func (t *planTap) totals() (req, resp int64, residence map[uint64][2]time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[uint64][2]time.Time, len(t.residence))
	for k, v := range t.residence {
		out[k] = v
	}
	return t.reqBytes, t.respBytes, out
}

// planConn is used by one serving goroutine, which reads a request and
// writes its response in turn, so its own fields need no lock.
type planConn struct {
	net.Conn
	t      *planTap
	readAt time.Time
	out    []byte // response bytes written since the last newline
}

func (c *planConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	if n > 0 {
		if bytes.IndexByte(b[:n], '\n') >= 0 {
			c.readAt = time.Now()
		}
		c.t.mu.Lock()
		c.t.reqBytes += int64(n)
		c.t.mu.Unlock()
	}
	return n, err
}

func (c *planConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	done := time.Now()
	c.out = append(c.out, b[:n]...)
	if n == 0 || b[n-1] != '\n' {
		c.t.mu.Lock()
		c.t.respBytes += int64(n)
		c.t.mu.Unlock()
		return n, err
	}
	var resp struct {
		ID uint64 `json:"id"`
	}
	idErr := json.Unmarshal(c.out, &resp)
	c.out = c.out[:0]
	c.t.mu.Lock()
	c.t.respBytes += int64(n)
	if idErr == nil {
		c.t.residence[resp.ID] = [2]time.Time{c.readAt, done}
	}
	c.t.mu.Unlock()
	return n, err
}
