package mlaas

// Wire-frame integrity: an optional CRC32 trailer on success responses.
// A request whose header carries the crc prefix (header.go) gets
// [crcMagic][IEEE CRC32 of every response byte from the status byte
// onward] appended after its success payload; requests without it get
// byte-identical legacy responses.
//
// Why only success frames: the server refuses some requests (drain,
// admission) before reading a single request byte, so it cannot know
// whether the peer advertised CRC framing — a trailer there would desync
// old clients. Failure messages carry no logits, so an undetected flip
// costs an error string at worst; corrupt logits silently decrypted into
// wrong answers are the hazard the trailer exists to close.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"io"

	"fxhenn/internal/ckks"
)

// ErrFrameCorrupt marks a response whose CRC32 trailer did not match the
// received bytes — or, on a CRC-framed exchange, a response whose payload
// failed structural decoding (both are corruption evidence once the
// trailer is negotiated). It is always wrapped in a *TransportError;
// corruption is a property of one connection's traffic, so the request is
// safe to retry on a fresh connection.
var ErrFrameCorrupt = errors.New("mlaas: response frame corrupt (crc mismatch)")

// crcReader accumulates an IEEE CRC32 over everything read through it.
type crcReader struct {
	r io.Reader
	h hash.Hash32
}

func newCRCReader(r io.Reader) *crcReader {
	return &crcReader{r: r, h: crc32.NewIEEE()}
}

func (cr *crcReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.h.Write(p[:n]) //nolint:errcheck // hash.Hash never errors
	return n, err
}

// trailerBytes is the size of the [crcMagic][crc32] trailer.
const trailerBytes = 8

// appendTrailer appends the [crcMagic][crc32] trailer to frame, the CRC
// taken over every byte of frame.
func appendTrailer(frame []byte) []byte {
	sum := crc32.ChecksumIEEE(frame)
	frame = binary.LittleEndian.AppendUint32(frame, crcMagic)
	return binary.LittleEndian.AppendUint32(frame, sum)
}

// errFrameCorruptf wraps ErrFrameCorrupt with detail, keeping errors.Is
// working for callers that classify corruption.
func errFrameCorruptf(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{ErrFrameCorrupt}, args...)...)
}

// readTrailer consumes the 8-byte trailer from r and checks it against
// sum, returning an ErrFrameCorrupt-wrapped error on any mismatch or
// truncation.
func readTrailer(r io.Reader, sum uint32) error {
	var tr [trailerBytes]byte
	if _, err := io.ReadFull(r, tr[:]); err != nil {
		return errFrameCorruptf("missing crc trailer: %v", err)
	}
	if binary.LittleEndian.Uint32(tr[:4]) != crcMagic {
		return errFrameCorruptf("bad trailer magic 0x%08x", binary.LittleEndian.Uint32(tr[:4]))
	}
	if got := binary.LittleEndian.Uint32(tr[4:]); got != sum {
		return errFrameCorruptf("crc 0x%08x, computed 0x%08x", got, sum)
	}
	return nil
}

// readCheckedResponse reads one response: the status (a failure frame
// ends the exchange there), then the success payload through body, then
// — when crc — the trailer over every byte from the status byte on. On a
// CRC-framed exchange a structural decode failure is corruption evidence
// too, since an honest server produces well-formed frames, so it maps to
// ErrFrameCorrupt. Payload and trailer errors arrive as partial
// *TransportError. It returns the bytes consumed.
func readCheckedResponse(r io.Reader, crc bool, body func(io.Reader) (int64, error)) (int64, error) {
	src := r
	var cr *crcReader
	if crc {
		cr = newCRCReader(r)
		src = cr
	}
	// Failure frames never carry a trailer: some refusals are written
	// before the server has read the request's header.
	recv, err := readStatus(src)
	if err != nil {
		return recv, err
	}
	n, err := body(src)
	recv += n
	if err != nil {
		if crc && errors.Is(err, ckks.ErrMalformed) {
			err = errFrameCorruptf("%v", err)
		}
		return recv, &TransportError{Partial: true, Err: err}
	}
	if crc {
		// The sum covers the payload, not the trailer bytes read next.
		if err := readTrailer(r, cr.h.Sum32()); err != nil {
			return recv, &TransportError{Partial: true, Err: err}
		}
		recv += trailerBytes
	}
	return recv, nil
}
