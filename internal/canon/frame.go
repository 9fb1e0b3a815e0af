package canon

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Record framing for the durability plane (internal/store): every record
// appended to a WAL segment is written as
//
//	[u32 length][u32 CRC-32C of payload][payload]
//
// The length prefix lets a reader skip records it does not understand; the
// checksum turns torn writes and bit rot into clean, detectable errors. A
// truncated or corrupt frame at the tail of the newest segment is the
// expected shape of a crash mid-append and is reported as ErrFrameTorn so
// recovery can stop at the last intact record; the same condition anywhere
// else is genuine corruption.

// FrameOverhead is the fixed per-record framing cost in bytes.
const FrameOverhead = 8

// castagnoli is the CRC-32C polynomial table (hardware-accelerated on
// common platforms).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Framing errors.
var (
	// ErrFrameTorn marks a frame whose length or checksum does not match
	// the bytes on disk — the signature of a write interrupted by a crash.
	ErrFrameTorn = errors.New("canon: torn or corrupt frame")
)

// AppendFrame appends one framed record to dst and returns the extended
// slice.
func AppendFrame(dst, payload []byte) []byte {
	if len(payload) > maxLen {
		panic(fmt.Sprintf("canon: frame payload %d exceeds limit", len(payload)))
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.BigEndian.AppendUint32(dst, crc32.Checksum(payload, castagnoli))
	return append(dst, payload...)
}

// SealFrame writes the frame header in place: frame holds FrameOverhead
// reserved bytes followed by the payload, so a caller that builds the
// payload directly behind the header frames a record with no second buffer.
// The result is byte-identical to AppendFrame(nil, frame[FrameOverhead:]).
func SealFrame(frame []byte) {
	payload := frame[FrameOverhead:]
	if len(payload) > maxLen {
		panic(fmt.Sprintf("canon: frame payload %d exceeds limit", len(payload)))
	}
	binary.BigEndian.PutUint32(frame, uint32(len(payload)))
	binary.BigEndian.PutUint32(frame[4:], crc32.Checksum(payload, castagnoli))
}

// ReadFrame consumes one framed record from buf, returning the payload and
// the remaining bytes. The payload aliases buf; callers that retain it past
// the buffer's lifetime must copy. A short or checksum-failing frame returns
// ErrFrameTorn.
func ReadFrame(buf []byte) (payload, rest []byte, err error) {
	if len(buf) < FrameOverhead {
		return nil, buf, fmt.Errorf("%w: %d header bytes", ErrFrameTorn, len(buf))
	}
	n := binary.BigEndian.Uint32(buf)
	sum := binary.BigEndian.Uint32(buf[4:])
	if n > maxLen || int(n) > len(buf)-FrameOverhead {
		return nil, buf, fmt.Errorf("%w: length %d exceeds buffer", ErrFrameTorn, n)
	}
	payload = buf[FrameOverhead : FrameOverhead+int(n)]
	if crc32.Checksum(payload, castagnoli) != sum {
		return nil, buf, fmt.Errorf("%w: checksum mismatch", ErrFrameTorn)
	}
	return payload, buf[FrameOverhead+int(n):], nil
}
