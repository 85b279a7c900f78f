package exec

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzFrameLine drives readLine into both frame types: no panics on
// arbitrary input, every line longer than maxHeaderLine is rejected,
// and any accepted value survives a writeLine/readLine round trip.
func FuzzFrameLine(f *testing.F) {
	f.Add(`{"xid":3,"src":0,"dst":4,"round":1,"attempt":0,"size":1024}`)
	f.Add(`{"xid":18446744073709551615,"src":-1,"dst":7,"size":-5}`)
	f.Add(`{"ok":true}`)
	f.Add(`{"ok":true,"dup":true}`)
	f.Add(`{"ok":false,"error":"exec: receiver gone <&>"}`)
	f.Add(`{"size":1e3}`)
	f.Add(`{`)
	f.Add(``)
	f.Add(`null`)
	f.Add("{\"ok\":true}\n{\"ok\":false}")
	f.Add(`{"error":"` + strings.Repeat("x", maxHeaderLine) + `"}`)
	f.Fuzz(func(t *testing.T, line string) {
		in := line + "\n"
		first := strings.IndexByte(in, '\n') + 1
		checkFrameLine[frameHeader](t, in, first)
		checkFrameLine[frameAck](t, in, first)
	})
}

// checkFrameLine reads in into a T, then round-trips whatever was
// accepted. first is the length of in's first line, newline included.
func checkFrameLine[T comparable](t *testing.T, in string, first int) {
	t.Helper()
	var v T
	err := readLine(newFrameReader(strings.NewReader(in)), &v)
	if first > maxHeaderLine {
		if err == nil {
			t.Fatalf("accepted a %d-byte frame line", first)
		}
		return
	}
	if err != nil {
		return
	}
	var buf bytes.Buffer
	if err := writeLine(&buf, v); err != nil {
		t.Fatalf("accepted %T failed to encode: %v", v, err)
	}
	encoded := buf.Len()
	var back T
	err = readLine(newFrameReader(&buf), &back)
	if encoded > maxHeaderLine {
		// Escaping can lengthen a string field past the bound.
		if err == nil {
			t.Fatalf("re-read an over-long %d-byte encoding", encoded)
		}
		return
	}
	if err != nil {
		t.Fatalf("encoded %T failed to re-read: %v", v, err)
	}
	if back != v {
		t.Fatalf("%T round trip changed %+v to %+v", v, v, back)
	}
}
