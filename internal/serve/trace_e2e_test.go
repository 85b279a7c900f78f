package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"hetsched/internal/comm"
	"hetsched/internal/exec"
	"hetsched/internal/model"
	"hetsched/internal/obs"
	"hetsched/internal/sched"
)

// TestEndToEndTraceCorrelation is the PR's acceptance walkthrough: one
// trace ID, minted client-side, is visible (1) echoed on the serve
// response, (2) as the exemplar on the daemon's latency histogram,
// (3) on the executor's delivery report, and (4) in a single Perfetto
// export whose serve, comm, and exec tracks all carry spans of that
// trace — the "follow one slow request across the stack" story, as a
// test.
func TestEndToEndTraceCorrelation(t *testing.T) {
	const n = 4
	reg := obs.New()
	obs.DeclareStandard(reg)
	flight := obs.NewFlightRecorder(256, nil)
	tail := obs.NewTailSampler(16)

	c, err := comm.New(n, okSource(n), comm.Config{Metrics: reg, Flight: flight})
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDaemon(c, nil, Config{
		Metrics: reg, Flight: flight, Tail: tail, TailAll: true})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Shutdown()
	srv, addr := startTestServer(t, d, ServerConfig{})
	defer srv.Close()

	id := obs.NewTraceID()
	hex := obs.FormatTraceID(id)
	// The client keeps its own span tree under the same trace ID; the
	// daemon records its serve/comm legs server-side, the executor
	// records the exec leg here, and both trees meet in the sampler.
	rt := obs.NewReqTrace(id, nil)
	ctx := obs.WithReqTrace(context.Background(), rt)

	// Leg 1: plan over the wire.
	cl, err := Dial(ctx, addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	resp, err := cl.Plan(ctx, PlanRequest{
		ID: 1, P: n, Kind: PatternUniform, Bytes: 1024})
	if err != nil || !resp.OK {
		t.Fatalf("plan failed: %v %+v", err, resp)
	}
	if resp.Trace != hex {
		t.Fatalf("serve response trace = %q, want %q", resp.Trace, hex)
	}

	// Leg 2: the scrape carries the trace as the latency exemplar.
	var scrape bytes.Buffer
	if err := reg.WritePrometheus(&scrape); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(scrape.String(), `trace_id="`+hex+`"`) {
		t.Fatalf("scrape has no exemplar for trace %s", hex)
	}

	// Leg 3: execute an exchange under the same trace.
	m := model.NewMatrix(n)
	sizes := model.NewSizes(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			m.Set(i, j, 0.0001*float64(1+(i+2*j)%4))
			sizes.Set(i, j, int64(64*(1+(i*n+j)%5)))
		}
	}
	res, err := sched.NewOpenShop().Schedule(m)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := exec.NewMem(n)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := exec.New(tr, exec.Config{
		MinDeadline: 250 * time.Millisecond,
		Backoff:     time.Millisecond,
		Flight:      flight,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ex.Run(ctx, res, m, sizes)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Trace != hex {
		t.Fatalf("delivery report trace = %q, want %q", rep.Trace, hex)
	}
	var rendered bytes.Buffer
	rep.Render(&rendered)
	if !strings.Contains(rendered.String(), "trace: "+hex) {
		t.Fatalf("rendered report does not show the trace:\n%s", rendered.String())
	}
	// The client-side tree (with the exec leg) joins the daemon's tree
	// in the same sampler.
	if !tail.Offer(rt, true) {
		t.Fatal("client span tree not retained")
	}

	// The flight recorder saw request-scoped events from both ends.
	bySys := map[string]bool{}
	for _, ev := range flight.Snapshot() {
		if ev.Trace == id {
			bySys[ev.Sys] = true
		}
	}
	if !bySys["serve"] || !bySys["exec"] {
		t.Fatalf("flight events tagged with the trace: %v, want serve and exec", bySys)
	}

	// Leg 4: one Perfetto export, three subsystem tracks, one trace ID.
	var pb bytes.Buffer
	if err := tail.WritePerfetto(&pb); err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []struct {
			Ph   string            `json:"ph"`
			TID  int               `json:"tid"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(pb.Bytes(), &file); err != nil {
		t.Fatalf("Perfetto export does not parse: %v", err)
	}
	trackName := map[int]string{}
	for _, ev := range file.TraceEvents {
		if ev.Ph == "M" {
			trackName[ev.TID] = ev.Args["name"]
		}
	}
	tracks := map[string]bool{}
	for _, ev := range file.TraceEvents {
		if ev.Ph != "M" && ev.Args["trace"] == hex {
			tracks[trackName[ev.TID]] = true
		}
	}
	for _, want := range []string{"serve", "comm", "exec"} {
		if !tracks[want] {
			t.Errorf("Perfetto export has no %s-track span for trace %s (tracks: %v)",
				want, hex, tracks)
		}
	}
}
