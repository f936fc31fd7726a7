package mlaas

import (
	"bytes"
	"encoding/binary"
	"testing"

	"fxhenn/internal/telemetry"
)

// FuzzRouteHeader hardens the request header decoder, the one parser
// the server and the gateway's route peek share; the target keeps the
// peek's name, so its committed corpus stays where it was. The gateway
// runs the decoder on every byte stream a client (or attacker) can open,
// before any authentication or admission, so it must never panic and
// never read past maxHeaderBytes, and the bytes it reports consumed must
// be exactly the prefix it read — the gateway replays them verbatim to
// the shard. Every accepted header must re-encode to exactly those
// bytes, so encoder and decoder agree on all four prefixes.
func FuzzRouteHeader(f *testing.F) {
	u32 := func(w uint32) []byte {
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], w)
		return b[:]
	}
	tc := telemetry.SpanContext{Trace: telemetry.TraceID{7}, Span: telemetry.SpanID{9}}
	// The encoder's output for all 16 prefix combinations.
	for mask := 0; mask < 16; mask++ {
		var h requestHeader
		if mask&1 != 0 {
			h.Trace = tc
		}
		if mask&2 != 0 {
			h.Route = RouteHeader{Tenant: "alice", Generation: 3}
		}
		h.CRC = mask&4 != 0
		h.Batch = mask&8 != 0
		b, err := h.appendTo(nil, 9)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		f.Add(b[:len(b)-1])
	}
	f.Add([]byte{})
	f.Add([]byte{0x31})
	f.Add(u32(routeMagic))
	f.Add(append(u32(routeMagic), 0, 0))
	f.Add(append(u32(routeMagic), 0xFF, 0xFF))
	f.Add(append(u32(traceMagic), make([]byte, traceBodyLen+4)...))
	f.Add(append(u32(crcMagic), u32(crcMagic)...))
	traced, err := requestHeader{Trace: tc}.appendTo(nil, 9)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(bytes.Repeat(traced[:4+traceBodyLen], 8))

	f.Fuzz(func(t *testing.T, data []byte) {
		hdr, count, consumed, err := readRequestHeader(bytes.NewReader(data))
		if len(consumed) > maxHeaderBytes || len(consumed) > len(data) {
			t.Fatalf("consumed %d bytes of %d, cap %d", len(consumed), len(data), maxHeaderBytes)
		}
		if !bytes.Equal(consumed, data[:len(consumed)]) {
			t.Fatalf("consumed % x is not a prefix of input % x", consumed, data)
		}
		if err != nil {
			return
		}
		re, err := hdr.appendTo(nil, count)
		if err != nil {
			t.Fatalf("re-encoding accepted header %+v: %v", hdr, err)
		}
		if !bytes.Equal(re, consumed) {
			t.Fatalf("header %+v count %d does not round-trip: % x vs % x", hdr, count, re, consumed)
		}
	})
}
