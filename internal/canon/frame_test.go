package canon

import (
	"bytes"
	"errors"
	"testing"
)

func TestFrameRoundtrip(t *testing.T) {
	var buf []byte
	payloads := [][]byte{
		[]byte("first"),
		{},
		bytes.Repeat([]byte{0xAB}, 10_000),
		[]byte("last"),
	}
	for _, p := range payloads {
		buf = AppendFrame(buf, p)
	}
	rest := buf
	for i, want := range payloads {
		got, r, err := ReadFrame(rest)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame %d: payload %d bytes, want %d", i, len(got), len(want))
		}
		rest = r
	}
	if len(rest) != 0 {
		t.Fatalf("%d trailing bytes", len(rest))
	}
}

func TestFrameTornAndCorrupt(t *testing.T) {
	full := AppendFrame(nil, []byte("payload-bytes"))

	// Every truncation point yields ErrFrameTorn, never a bogus payload.
	for cut := 0; cut < len(full); cut++ {
		if _, _, err := ReadFrame(full[:cut]); !errors.Is(err, ErrFrameTorn) {
			t.Fatalf("cut at %d: %v, want ErrFrameTorn", cut, err)
		}
	}
	// A flipped payload bit fails the checksum.
	corrupt := append([]byte(nil), full...)
	corrupt[FrameOverhead+3] ^= 0x01
	if _, _, err := ReadFrame(corrupt); !errors.Is(err, ErrFrameTorn) {
		t.Fatalf("corrupt payload: %v, want ErrFrameTorn", err)
	}
	// A flipped length prefix fails cleanly too.
	corrupt = append([]byte(nil), full...)
	corrupt[0] ^= 0xFF
	if _, _, err := ReadFrame(corrupt); !errors.Is(err, ErrFrameTorn) {
		t.Fatalf("corrupt length: %v, want ErrFrameTorn", err)
	}
}

func TestSealFrameMatchesAppendFrame(t *testing.T) {
	for _, p := range [][]byte{{}, []byte("k"), bytes.Repeat([]byte{0x5A}, 4099)} {
		frame := make([]byte, FrameOverhead+len(p))
		copy(frame[FrameOverhead:], p)
		SealFrame(frame)
		if want := AppendFrame(nil, p); !bytes.Equal(frame, want) {
			t.Fatalf("%d-byte payload: sealed % x, appended % x", len(p), frame[:FrameOverhead], want[:FrameOverhead])
		}
	}
}
