package serve

import (
	"bytes"
	"reflect"
	"testing"
)

// TestPlanRequestRoundTrip pins the plan-request encode/decode cycle
// for every request shape the serve layer produces.
func TestPlanRequestRoundTrip(t *testing.T) {
	reqs := []PlanRequest{
		{Op: OpPlan, ID: 7, P: 8, Kind: PatternUniform, Bytes: 1024, DeadlineMS: 500},
		{Op: OpPlan, P: 5, Kind: PatternRandom, Bytes: 1 << 20, Seed: 42},
		{Op: OpPlan, P: 3, Kind: PatternSkew, Bytes: 64},
		{Op: OpPlan, ID: 1, Sizes: [][]int64{{0, 1, 2}, {3, 0, 5}, {6, 7, 0}}},
		{Op: OpPlan, ID: 2, P: 4, Kind: PatternUniform, Bytes: 256,
			Trace: "00000000deadbeef"},
		{Op: OpServeStats},
	}
	for _, req := range reqs {
		wire, err := EncodePlanRequest(req)
		if err != nil {
			t.Fatalf("encode %+v: %v", req, err)
		}
		if wire[len(wire)-1] != '\n' {
			t.Fatalf("wire line not newline-terminated: %q", wire)
		}
		back, err := ParsePlanRequest(wire)
		if err != nil {
			t.Fatalf("parse %q: %v", wire, err)
		}
		if !reflect.DeepEqual(back, req) {
			t.Fatalf("round trip changed %+v to %+v", req, back)
		}
	}
}

// TestPlanResponseRoundTrip pins the response cycle for every outcome
// shape: served (fresh, coalesced, cached), shed, expired, draining,
// request error, and a stats reply.
func TestPlanResponseRoundTrip(t *testing.T) {
	resps := []PlanResponse{
		{OK: true, ID: 7, Status: PlanServed, Health: "ok", Generation: 3,
			Algorithm: "openshop", TMax: 0.012, TLB: 0.009, Steps: 8, QueueWaitMS: 1.5},
		{OK: true, Status: PlanServed, Health: "stale", Algorithm: "maxmatch+stale", Coalesced: true},
		{OK: true, Status: PlanServed, Health: "degraded", Algorithm: "baseline+degraded", Cached: true},
		{OK: true, ID: 11, Status: PlanServed, Health: "ok", Algorithm: "openshop",
			Trace: "000000000000feed"},
		{OK: false, ID: 9, Status: PlanShed, RetryAfterMS: 40, Error: "serve: queue full"},
		{OK: false, Status: PlanExpired, RetryAfterMS: 25, Error: "serve: deadline cannot cover planning cost"},
		{OK: false, Status: PlanDraining, RetryAfterMS: 100, Error: "serve: draining"},
		{OK: false, Error: `unknown op "x"`},
		{OK: true, Status: PlanServed, Stats: &ServeStats{
			QueueDepth: 2, InFlight: 4, Draining: true,
			Admitted: 10, Served: 8, Shed: 1, Expired: 1, Rejected: 1,
			Coalesced: 3, CacheHits: 2, Plans: 5,
			ServedFresh: 6, ServedStale: 1, ServedDegraded: 1}},
	}
	for _, resp := range resps {
		wire, err := EncodePlanResponse(resp)
		if err != nil {
			t.Fatalf("encode %+v: %v", resp, err)
		}
		back, err := ParsePlanResponse(wire)
		if err != nil {
			t.Fatalf("parse %q: %v", wire, err)
		}
		if !reflect.DeepEqual(back, resp) {
			t.Fatalf("round trip changed %+v to %+v", resp, back)
		}
	}
}

// TestPlanTraceIsOptional pins backward compatibility of the trace
// field: pre-trace clients omit it entirely, and untraced messages must
// not put it on the wire.
func TestPlanTraceIsOptional(t *testing.T) {
	req, err := ParsePlanRequest([]byte(`{"op":"plan","p":4,"kind":"uniform","bytes":64}` + "\n"))
	if err != nil {
		t.Fatal(err)
	}
	if req.Trace != "" {
		t.Fatalf("legacy request parsed with Trace=%q, want empty", req.Trace)
	}
	wire, err := EncodePlanRequest(PlanRequest{Op: OpPlan, P: 4, Kind: PatternUniform, Bytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(wire, []byte("trace")) {
		t.Fatalf("untraced request leaked a trace field: %s", wire)
	}
	rwire, err := EncodePlanResponse(PlanResponse{OK: true, Status: PlanServed})
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(rwire, []byte("trace")) {
		t.Fatalf("untraced response leaked a trace field: %s", rwire)
	}
}

// TestPlanParseRejectsGarbage mirrors the directory decoders: anything
// that is not one JSON value fails with a parse error, never panics.
func TestPlanParseRejectsGarbage(t *testing.T) {
	for _, line := range []string{"", "{", "null{", "[1,2]", `"plan"`, "{]"} {
		if _, err := ParsePlanRequest([]byte(line)); err == nil {
			t.Fatalf("garbage %q accepted as plan request", line)
		}
		if _, err := ParsePlanResponse([]byte(line)); err == nil {
			t.Fatalf("garbage %q accepted as plan response", line)
		}
	}
}

// TestPlanEncodeIsFixedPoint: encoding a decoded response must be a
// fixed point (empty optional fields are omitted on the wire), the
// property the fuzz harness checks for arbitrary inputs.
func TestPlanEncodeIsFixedPoint(t *testing.T) {
	wire, err := EncodePlanResponse(PlanResponse{OK: true, Status: PlanServed})
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParsePlanResponse(wire)
	if err != nil {
		t.Fatal(err)
	}
	wire2, err := EncodePlanResponse(back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wire, wire2) {
		t.Fatalf("re-encode changed %s to %s", wire, wire2)
	}
}

// FuzzPlanProtoDecode holds the plan-service frames (planproto.go) to
// a value round trip: for every line ParsePlanRequest or
// ParsePlanResponse accepts, encoding the decoded value and decoding
// that again must give back the same value. The one normalization is
// the one the encoding defines: an empty Sizes table is omitted on the
// wire, so it comes back nil.
func FuzzPlanProtoDecode(f *testing.F) {
	f.Add(`{"op":"plan","id":7,"p":8,"kind":"uniform","bytes":1024,"deadline_ms":500}`)
	f.Add(`{"op":"plan","p":4,"kind":"random","bytes":1048576,"seed":42,"trace":"00000000cafe0001"}`)
	f.Add(`{"op":"plan","sizes":[[0,1],[2,0]]}`)
	f.Add(`{"op":"plan","sizes":[]}`)
	f.Add(`{"op":"plan","sizes":[[],null]}`)
	f.Add(`{"op":"serve_stats"}`)
	f.Add(`{"ok":true,"id":7,"status":"served","health":"ok","generation":3,"algorithm":"openshop","t_max":0.012,"t_lb":0.009,"steps":8,"cached":true,"queue_wait_ms":1.5}`)
	f.Add(`{"ok":false,"status":"shed","retry_after_ms":40,"error":"serve: queue full"}`)
	f.Add(`{"ok":true,"status":"served","stats":{"queue_depth":2,"in_flight":1,"admitted":9,"draining":true}}`)
	f.Add(`{"ok":true,"stats":{}}`)
	f.Add(`{"ok":true,"stats":null}`)
	f.Add(`{`)
	f.Add(``)
	f.Add(`null`)
	f.Fuzz(func(t *testing.T, line string) {
		if req, err := ParsePlanRequest([]byte(line)); err == nil {
			wire, err := EncodePlanRequest(req)
			if err != nil {
				t.Fatalf("accepted plan request failed to encode: %v", err)
			}
			back, err := ParsePlanRequest(wire)
			if err != nil {
				t.Fatalf("encoded plan request failed to re-parse: %v", err)
			}
			if len(req.Sizes) == 0 {
				req.Sizes = nil
			}
			if !reflect.DeepEqual(back, req) {
				t.Fatalf("plan request round trip changed %+v to %+v", req, back)
			}
		}
		if resp, err := ParsePlanResponse([]byte(line)); err == nil {
			wire, err := EncodePlanResponse(resp)
			if err != nil {
				t.Fatalf("accepted plan response failed to encode: %v", err)
			}
			back, err := ParsePlanResponse(wire)
			if err != nil {
				t.Fatalf("encoded plan response failed to re-parse: %v", err)
			}
			if !reflect.DeepEqual(back, resp) {
				t.Fatalf("plan response round trip changed %+v to %+v", resp, back)
			}
		}
	})
}
