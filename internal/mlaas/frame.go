package mlaas

// Wire-frame integrity: an optional CRC32 trailer on success responses,
// negotiated through the same magic-word versioning the batched framing
// uses. A client that sets FrameCheck prefixes its request with crcMagic
// (a word far above maxRequestCiphertexts, so an old server refuses it as
// a hostile ciphertext count instead of misparsing the stream); a server
// that sees the magic appends [crcMagic][IEEE CRC32 of every response
// byte from the status byte onward] after the success payload. Old
// clients never send the magic and old servers never see it, so both
// legacy directions stay byte-identical on the wire.
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
)

// crcMagic is the first word of a CRC-framed request ("CRC1" as a
// constant; like batchMagic it is far above maxRequestCiphertexts so
// servers predating it reject the request with a typed bad-request
// status instead of misparsing it).
const crcMagic uint32 = 0x43524331

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
