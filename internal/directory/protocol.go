package directory

import (
	"fmt"

	"hetsched/internal/wire"
)

// Wire protocol: newline-delimited JSON over TCP. Each request is one
// JSON object on one line; the server answers with one JSON object on
// one line. Units on the wire are SI (seconds, bytes/second), the same
// as in memory.
//
//	→ {"op":"query","src":0,"dst":3}
//	← {"ok":true,"version":7,"latency":0.012,"bandwidth":255500}
//	→ {"op":"snapshot"}
//	← {"ok":true,"version":7,"n":5,"names":[...],"latency":[[...]],"bandwidth":[[...]]}
//	→ {"op":"update_pair","src":0,"dst":3,"latency":0.02,"bandwidth":1e6}
//	← {"ok":true,"version":8}
//	→ {"op":"version"}
//	← {"ok":true,"version":8}
//
// Unknown ops and malformed requests get {"ok":false,"error":"..."}.

// request is the union of all request shapes.
type request struct {
	Op        string  `json:"op"`
	Src       int     `json:"src"`
	Dst       int     `json:"dst"`
	Latency   float64 `json:"latency"`
	Bandwidth float64 `json:"bandwidth"`
}

// response is the union of all response shapes; empty fields are
// omitted on the wire.
type response struct {
	OK        bool        `json:"ok"`
	Error     string      `json:"error,omitempty"`
	Version   uint64      `json:"version,omitempty"`
	N         int         `json:"n,omitempty"`
	Names     []string    `json:"names,omitempty"`
	Latency   float64     `json:"latency,omitempty"`
	Bandwidth float64     `json:"bandwidth,omitempty"`
	LatTable  [][]float64 `json:"lat_table,omitempty"`
	BWTable   [][]float64 `json:"bw_table,omitempty"`
	// Calibration-feed accounting (OpCalibrate, calibproto.go): how many
	// entries of the request were folded into the store and how many were
	// rejected at the bounds boundary.
	Applied  int `json:"applied,omitempty"`
	Rejected int `json:"rejected,omitempty"`
}

// Protocol op names.
const (
	opQuery      = "query"
	opSnapshot   = "snapshot"
	opUpdatePair = "update_pair"
	opVersion    = "version"
)

// parseRequest decodes one request line. Unknown JSON fields are
// ignored (forward compatibility); anything that is not a single JSON
// object is rejected with the "malformed request" error the server
// reports verbatim. Both the server's read path and the fuzz harness
// go through this single entry point.
func parseRequest(line []byte) (request, error) {
	var req request
	if err := wire.DecodeLine(line, &req); err != nil {
		return request{}, fmt.Errorf("malformed request: %w", err)
	}
	return req, nil
}

// encodeRequest renders a request as one newline-terminated wire line.
func encodeRequest(req request) ([]byte, error) {
	b, err := wire.EncodeLine(req)
	if err != nil {
		return nil, fmt.Errorf("encode request: %w", err)
	}
	return b, nil
}

// parseResponse decodes one response line.
func parseResponse(line []byte) (response, error) {
	var resp response
	if err := wire.DecodeLine(line, &resp); err != nil {
		return response{}, fmt.Errorf("malformed response: %w", err)
	}
	return resp, nil
}

// encodeResponse renders a response as one newline-terminated wire
// line.
func encodeResponse(resp response) ([]byte, error) {
	b, err := wire.EncodeLine(resp)
	if err != nil {
		return nil, fmt.Errorf("encode response: %w", err)
	}
	return b, nil
}
