package mlaas

// The request prefix codec. A request is the legacy ciphertext list — a
// uint32 count, then that many serialized ciphertexts — optionally
// preceded by up to four prefixes. Each prefix opens with a magic word
// far above maxRequestCiphertexts, so a server predating a prefix refuses
// it through the hostile-count guard instead of misparsing the stream,
// and a client that sets none of them writes byte-identical legacy
// framing. All words are little-endian.
//
//	prefix  magic       wire    body                                        bytes
//	trace   0x54524331  "1CRT"  trace ID (16), parent span ID (8)           28
//	route   0x544E5431  "1TNT"  u16 len, tenant (1..128), u64 generation    15..142
//	crc     0x43524331  "1CRC"  none                                        4
//	batch   0x42544348  "HCTB"  none                                        4
//	count   none                u32 ciphertext count                        4
//
// At most one of each prefix may appear, in exactly this order, so a
// request header is never longer than maxHeaderBytes = 28 + 142 + 4 + 4 +
// 4 = 182 bytes. A magic out of place — a second trace prefix, a crc
// after batch — reads as the count and is refused by the count guard.
//
//   - trace carries the client's trace context (trace.go); a server with a
//     flight recorder stitches its spans under it, one without ignores it.
//     A zero trace ID is refused: no encoder writes one.
//   - route names the tenant and optionally pins the registry generation
//     the client's keys derive from (tenant.go). The gateway reads the
//     header to pick the tenant's shard and replays the consumed bytes.
//   - crc asks for a CRC32 trailer on the success response (frame.go).
//   - batch marks the ciphertexts as position-major batch-ring inputs for
//     the batch scheduler (batch.go); a server or tenant without batching
//     refuses the magic as the hostile count it is.
//
// appendTo is the only encoder and readRequestHeader the only decoder;
// the clients, the server and the gateway all go through them.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"fxhenn/internal/registry"
	"fxhenn/internal/telemetry"
)

// The prefix magic words, in wire order.
const (
	traceMagic uint32 = 0x54524331
	routeMagic uint32 = 0x544E5431
	crcMagic   uint32 = 0x43524331
	batchMagic uint32 = 0x42544348
)

const (
	// traceBodyLen is the trace context after its magic: the 16-byte
	// trace ID then the 8-byte parent span ID.
	traceBodyLen = 24
	// maxRouteTenantBytes caps the tenant name on the wire; it matches
	// the registry's own name cap, so every registrable tenant is
	// routable.
	maxRouteTenantBytes = registry.MaxNameBytes
	// maxHeaderBytes bounds everything the decoder reads: every prefix at
	// its largest, then the count.
	maxHeaderBytes = (4 + traceBodyLen) + (4 + 2 + maxRouteTenantBytes + 8) + 4 + 4 + 4
)

// RouteHeader names the tenant a request belongs to. Generation, when
// non-zero, pins the registry generation the client's key material
// derives from: a server whose registry has moved on (key rotation,
// model update) refuses the request with a typed bad-request instead of
// evaluating under mismatched keys and returning undecryptable logits.
type RouteHeader struct {
	Tenant     string
	Generation uint64
}

// IsZero reports whether the header routes nowhere (the single-tenant
// default path).
func (h RouteHeader) IsZero() bool { return h.Tenant == "" }

// requestHeader is the decoded request prefix; its zero value is the
// legacy framing.
type requestHeader struct {
	Trace      telemetry.SpanContext
	Route      RouteHeader
	CRC, Batch bool
}

// appendTo appends the present prefixes in wire order, then count.
func (h requestHeader) appendTo(buf []byte, count uint32) ([]byte, error) {
	le := binary.LittleEndian
	if !h.Trace.IsZero() {
		buf = le.AppendUint32(buf, traceMagic)
		buf = append(buf, h.Trace.Trace[:]...)
		buf = append(buf, h.Trace.Span[:]...)
	}
	if !h.Route.IsZero() {
		if len(h.Route.Tenant) > maxRouteTenantBytes {
			return buf, fmt.Errorf("mlaas: tenant name %d bytes exceeds the %d wire cap", len(h.Route.Tenant), maxRouteTenantBytes)
		}
		buf = le.AppendUint32(buf, routeMagic)
		buf = le.AppendUint16(buf, uint16(len(h.Route.Tenant)))
		buf = append(buf, h.Route.Tenant...)
		buf = le.AppendUint64(buf, h.Route.Generation)
	}
	if h.CRC {
		buf = le.AppendUint32(buf, crcMagic)
	}
	if h.Batch {
		buf = le.AppendUint32(buf, batchMagic)
	}
	return le.AppendUint32(buf, count), nil
}

// readRequestHeader reads one request's prefixes — at most one of each,
// in wire order — and the count word after them. It returns the header,
// the raw count (bounds are the caller's to check), and every byte it
// read, which a proxy replays verbatim ahead of the rest of the stream.
// It never reads more than maxHeaderBytes.
func readRequestHeader(r io.Reader) (h requestHeader, count uint32, consumed []byte, err error) {
	d := headerReader{r: r, buf: make([]byte, 0, maxHeaderBytes)}
	w, err := d.word()
	if err != nil {
		return h, 0, d.buf, fmt.Errorf("reading request header: %w", err)
	}
	if w == traceMagic {
		b, err := d.read(traceBodyLen)
		if err != nil {
			return h, 0, d.buf, fmt.Errorf("reading trace context: %w", err)
		}
		copy(h.Trace.Trace[:], b[:16])
		copy(h.Trace.Span[:], b[16:])
		if h.Trace.IsZero() {
			return h, 0, d.buf, errors.New("reading trace context: zero trace ID")
		}
		if w, err = d.word(); err != nil {
			return h, 0, d.buf, fmt.Errorf("reading request header: %w", err)
		}
	}
	if w == routeMagic {
		if h.Route, err = d.route(); err != nil {
			return h, 0, d.buf, fmt.Errorf("reading route frame: %w", err)
		}
		if w, err = d.word(); err != nil {
			return h, 0, d.buf, fmt.Errorf("reading request header: %w", err)
		}
	}
	if w == crcMagic {
		h.CRC = true
		if w, err = d.word(); err != nil {
			return h, 0, d.buf, fmt.Errorf("reading request header: %w", err)
		}
	}
	if w == batchMagic {
		h.Batch = true
		if w, err = d.word(); err != nil {
			return h, 0, d.buf, fmt.Errorf("reading batched request header: %w", err)
		}
	}
	return h, w, d.buf, nil
}

// PeekRoute reads one request's header for a proxy: the route (zero when
// the request names no tenant) and the bytes consumed, which the caller
// must replay ahead of the remaining stream. It reads at most
// maxHeaderBytes and never touches a ciphertext.
func PeekRoute(r io.Reader) (RouteHeader, []byte, error) {
	h, _, consumed, err := readRequestHeader(r)
	return h.Route, consumed, err
}

// headerReader reads exact-size chunks into one bounded buffer, which
// doubles as the record of consumed bytes.
type headerReader struct {
	r   io.Reader
	buf []byte
}

func (d *headerReader) read(n int) ([]byte, error) {
	b := d.buf[len(d.buf) : len(d.buf)+n]
	k, err := io.ReadFull(d.r, b)
	d.buf = d.buf[:len(d.buf)+k]
	return b, err
}

func (d *headerReader) word() (uint32, error) {
	b, err := d.read(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

// route reads the route body after its magic.
func (d *headerReader) route() (RouteHeader, error) {
	b, err := d.read(2)
	if err != nil {
		return RouteHeader{}, fmt.Errorf("reading tenant length: %w", err)
	}
	n := int(binary.LittleEndian.Uint16(b))
	if n < 1 || n > maxRouteTenantBytes {
		return RouteHeader{}, fmt.Errorf("tenant name length %d outside [1,%d]", n, maxRouteTenantBytes)
	}
	if b, err = d.read(n + 8); err != nil {
		return RouteHeader{}, fmt.Errorf("reading route body: %w", err)
	}
	return RouteHeader{
		Tenant:     string(b[:n]),
		Generation: binary.LittleEndian.Uint64(b[n:]),
	}, nil
}
