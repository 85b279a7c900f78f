// Package wire is the JSON-line transport shared by the directory
// service, the planning daemon and the exchange executor: the framing
// (one JSON object per newline-terminated line) and one hardened TCP
// line server that the directory and plan servers plug their request
// handlers into.
package wire

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// Line-size bounds for every scanner reading the protocol: the buffer
// starts at initialLine and grows up to maxLine; a longer line fails
// the scan.
const (
	initialLine = 64 << 10
	maxLine     = 4 << 20
)

// EncodeLine renders v as one newline-terminated JSON wire line.
func EncodeLine(v any) ([]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("encode line: %w", err)
	}
	return append(b, '\n'), nil
}

// DecodeLine parses one JSON wire line into v. The trailing newline,
// if still present, is tolerated by the JSON decoder.
func DecodeLine(line []byte, v any) error {
	return json.Unmarshal(line, v)
}

// NewScanner returns a line scanner over r with the protocol's line
// bounds.
func NewScanner(r io.Reader) *bufio.Scanner {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, initialLine), maxLine)
	return sc
}
