package wire

import (
	"bytes"
	"math"
	"testing"
)

// frameSeeds is the byte-stream corpus the decode fuzz targets share:
// empty and short streams, valid frames, a bit flip, a truncation and a
// hostile length.
func frameSeeds() [][]byte {
	flipped := AppendFrame(nil, Header{From: 7, To: 0, Seq: 1}, []float64{42})
	flipped[17] ^= 0x01
	truncated := AppendFrame(nil, Header{}, []float64{1, 2, 3, 4})
	huge := make([]byte, PrefixLen)
	put32(huge, ^uint32(0))
	return [][]byte{
		{},
		{1, 2, 3},
		AppendFrame(nil, Header{}, nil),
		AppendFrame(nil, Header{From: 1, To: 2, Seq: 3, Arrive: 4.5}, []float64{1, 2, 3}),
		flipped,
		truncated[:len(truncated)-5],
		huge,
	}
}

// FuzzFrameDecode throws arbitrary byte streams at the decode pipeline
// exactly as the TCP reader drives it: prefix → BodyLen → PayloadWords
// → allocate → DecodeBody. The invariants under attack:
//
//   - no panic on any input (truncated, oversized, bit-flipped, garbage);
//   - no over-allocation: a frame may only make the decoder allocate
//     what its actual byte length supports (PayloadWords runs before the
//     payload buffer exists);
//   - a frame that decodes cleanly re-encodes to the identical bytes
//     (the encoding is canonical, so decode∘encode is the identity on
//     valid frames).
func FuzzFrameDecode(f *testing.F) {
	for _, seed := range frameSeeds() {
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < PrefixLen {
			if _, err := BodyLen(data); err == nil {
				t.Fatal("BodyLen accepted a short prefix")
			}
			return
		}
		n, err := BodyLen(data[:PrefixLen])
		if err != nil {
			return
		}
		if n > len(data)-PrefixLen {
			// Truncated stream: the reader would block for more bytes;
			// nothing to decode.
			return
		}
		body := data[PrefixLen : PrefixLen+n]
		w, err := PayloadWords(body)
		if err != nil {
			return
		}
		if 8*w > len(body) {
			t.Fatalf("PayloadWords let %d words through a %d-byte body", w, len(body))
		}
		dst := make([]float64, w)
		h, err := DecodeBody(body, dst)
		if err != nil {
			return
		}
		reencoded := AppendFrame(nil, h, dst)
		if !bytes.Equal(reencoded, data[:PrefixLen+n]) {
			t.Fatalf("decode∘encode not identity:\n got %x\nwant %x", reencoded, data[:PrefixLen+n])
		}
	})
}

// FuzzFrameRoundTrip is the property dual of FuzzFrameDecode: any
// header and payload encode to a frame that decodes back bit-exactly,
// and any single-bit corruption of the encoded body is detected.
func FuzzFrameRoundTrip(f *testing.F) {
	f.Add(uint16(0), uint16(0), uint64(0), uint64(0), []byte{})
	f.Add(uint16(1), uint16(2), uint64(3), math.Float64bits(4.5), []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(uint16(65535), uint16(65535), ^uint64(0), ^uint64(0), make([]byte, 64))

	f.Fuzz(func(t *testing.T, from, to uint16, seq, arriveBits uint64, raw []byte) {
		w := len(raw) / 8
		payload := make([]float64, w)
		for i := range payload {
			payload[i] = math.Float64frombits(get64(raw[8*i:]))
		}
		h := Header{From: int(from), To: int(to), Seq: int64(seq), Arrive: math.Float64frombits(arriveBits)}
		frame := AppendFrame(nil, h, payload)

		n, err := BodyLen(frame[:PrefixLen])
		if err != nil || n != len(frame)-PrefixLen {
			t.Fatalf("BodyLen on own encoding: n=%d err=%v (frame %d bytes)", n, err, len(frame))
		}
		body := frame[PrefixLen:]
		got, err := PayloadWords(body)
		if err != nil || got != w {
			t.Fatalf("PayloadWords on own encoding: %d, %v (want %d)", got, err, w)
		}
		dst := make([]float64, w)
		dh, err := DecodeBody(body, dst)
		if err != nil {
			t.Fatalf("DecodeBody on own encoding: %v", err)
		}
		if dh.From != h.From || dh.To != h.To || dh.Seq != h.Seq ||
			math.Float64bits(dh.Arrive) != math.Float64bits(h.Arrive) {
			t.Fatalf("header round trip: got %+v want %+v", dh, h)
		}
		for i := range payload {
			if math.Float64bits(dst[i]) != math.Float64bits(payload[i]) {
				t.Fatalf("payload[%d] bits changed", i)
			}
		}

		// Single-bit corruption anywhere in the body must be caught by
		// one of the validators (CRC at the latest). Flip position is
		// derived from the fuzz inputs so the corpus explores them all.
		pos := int((seq ^ arriveBits) % uint64(len(body)))
		bit := byte(1) << ((from ^ to) % 8)
		corrupt := append([]byte(nil), body...)
		corrupt[pos] ^= bit
		wc, err := PayloadWords(corrupt)
		if err == nil {
			if _, err = DecodeBody(corrupt, make([]float64, wc)); err == nil {
				t.Fatalf("bit flip at body[%d]&%#x went undetected", pos, bit)
			}
		}
	})
}
