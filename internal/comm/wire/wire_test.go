package wire

import (
	"bytes"
	"errors"
	"hash/crc32"
	"math"
	"testing"
)

// encode builds one standalone frame for the tests.
func encode(t *testing.T, h Header, payload []float64) []byte {
	t.Helper()
	return AppendFrame(nil, h, payload)
}

func decodeAll(frame []byte) (Header, []float64, error) {
	n, err := BodyLen(frame[:PrefixLen])
	if err != nil {
		return Header{}, nil, err
	}
	if n != len(frame)-PrefixLen {
		return Header{}, nil, errors.New("test: stream length disagrees with prefix")
	}
	body := frame[PrefixLen:]
	w, err := PayloadWords(body)
	if err != nil {
		return Header{}, nil, err
	}
	dst := make([]float64, w)
	h, err := DecodeBody(body, dst)
	return h, dst, err
}

// TestFrameRoundTrip: header and payload survive encode→decode exactly,
// including the largest rank, NaN payload bit patterns, and the empty
// payload.
func TestFrameRoundTrip(t *testing.T) {
	payloads := [][]float64{
		nil,
		{0},
		{1.5, -2.25, math.Inf(1), math.Inf(-1)},
		{math.Float64frombits(0x7ff8000000000001)}, // NaN with set mantissa bit
		make([]float64, 129),
	}
	for i := range payloads[len(payloads)-1] {
		payloads[len(payloads)-1][i] = float64(i) * 0.375
	}
	for _, pl := range payloads {
		h := Header{From: 3, To: 65535}
		frame := encode(t, h, pl)
		if want := FrameLen(len(pl)); len(frame) != want {
			t.Fatalf("frame of %d words is %d bytes, want %d", len(pl), len(frame), want)
		}
		got, dst, err := decodeAll(frame)
		if err != nil {
			t.Fatalf("decode %d-word frame: %v", len(pl), err)
		}
		if got != h {
			t.Fatalf("header round trip: got %+v want %+v", got, h)
		}
		if len(dst) != len(pl) {
			t.Fatalf("payload length %d, want %d", len(dst), len(pl))
		}
		for i := range pl {
			if math.Float64bits(dst[i]) != math.Float64bits(pl[i]) {
				t.Fatalf("payload[%d] bits %x, want %x", i, math.Float64bits(dst[i]), math.Float64bits(pl[i]))
			}
		}
	}
}

// TestFrameLayout pins the byte-level layout so both endpoints of a
// heterogeneous deployment agree: any change here is a wire protocol
// break, and must come with a new magic.
func TestFrameLayout(t *testing.T) {
	if HeaderLen != 16 || Magic != 0x33444753 {
		t.Fatalf("HeaderLen %d magic %#x, want 16 and \"SGD3\"", HeaderLen, uint32(Magic))
	}
	frame := encode(t, Header{From: 0x0102, To: 0x0304}, []float64{2.0})
	if len(frame) != 28 {
		t.Fatalf("1-word frame is %d bytes, want 28", len(frame))
	}
	if got := get32(frame); got != 16+8 {
		t.Errorf("length prefix %d, want 24", got)
	}
	if got := string(frame[4:8]); got != "SGD3" {
		t.Errorf("magic %q, want \"SGD3\"", got)
	}
	if got := get16(frame[8:]); got != 0x0102 {
		t.Errorf("from %#x, want 0x0102", got)
	}
	if got := get16(frame[10:]); got != 0x0304 {
		t.Errorf("to %#x, want 0x0304", got)
	}
	if got := get32(frame[12:]); got != 1 {
		t.Errorf("nwords %d, want 1", got)
	}
	if got := get64(frame[16:]); got != math.Float64bits(2.0) {
		t.Errorf("payload bits %#x", got)
	}
}

// sgd1Frame is a frame in an earlier layout — magic "SGD1", a 32-byte
// header with an 8-byte simulated arrival time between seq and nwords —
// as a peer built for that layout sends it.
func sgd1Frame(from, to int, seq int64, arrive float64, payload []float64) []byte {
	b := make([]byte, 32+8*len(payload)+TrailerLen)
	put32(b, uint32(len(b)-PrefixLen))
	put32(b[4:], 0x31444753)
	put16(b[8:], uint16(from))
	put16(b[10:], uint16(to))
	put64(b[12:], uint64(seq))
	put64(b[20:], math.Float64bits(arrive))
	put32(b[28:], uint32(len(payload)))
	for i, v := range payload {
		put64(b[32+8*i:], math.Float64bits(v))
	}
	put32(b[len(b)-TrailerLen:], crc32.Checksum(b[PrefixLen:len(b)-TrailerLen], castagnoli))
	return b
}

// sgd2Frame is a frame in the previous layout — magic "SGD2", a 24-byte
// header with an 8-byte reliable-delivery sequence number between to and
// nwords — as a peer built for that layout sends it.
func sgd2Frame(from, to int, seq int64, payload []float64) []byte {
	b := make([]byte, 24+8*len(payload)+TrailerLen)
	put32(b, uint32(len(b)-PrefixLen))
	put32(b[4:], 0x32444753)
	put16(b[8:], uint16(from))
	put16(b[10:], uint16(to))
	put64(b[12:], uint64(seq))
	put32(b[20:], uint32(len(payload)))
	for i, v := range payload {
		put64(b[24+8*i:], math.Float64bits(v))
	}
	put32(b[len(b)-TrailerLen:], crc32.Checksum(b[PrefixLen:len(b)-TrailerLen], castagnoli))
	return b
}

// TestPreviousLayoutIsBadMagic: a frame in an earlier layout is
// rejected as ErrBadMagic on its first bytes — by the whole-body decoder
// and by the streaming reader the TCP transport runs — never misparsed
// as a frame of this one.
func TestPreviousLayoutIsBadMagic(t *testing.T) {
	layouts := map[string]func(payload []float64) []byte{
		"SGD1": func(p []float64) []byte { return sgd1Frame(1, 2, 5, 0.5, p) },
		"SGD2": func(p []float64) []byte { return sgd2Frame(1, 2, 5, p) },
	}
	for name, layout := range layouts {
		for _, words := range []int{0, 1, 3} {
			frame := layout(make([]float64, words))
			n, err := BodyLen(frame[:PrefixLen])
			if err != nil {
				t.Fatalf("%s, %d words: BodyLen: %v", name, words, err)
			}
			body := frame[PrefixLen : PrefixLen+n]
			if _, err := PayloadWords(body); !errors.Is(err, ErrBadMagic) {
				t.Errorf("%s, %d words: PayloadWords: %v, want ErrBadMagic", name, words, err)
			}
			if _, err := DecodeBody(body, make([]float64, words)); !errors.Is(err, ErrBadMagic) {
				t.Errorf("%s, %d words: DecodeBody: %v, want ErrBadMagic", name, words, err)
			}
			if _, err := NewReader(bytes.NewReader(frame)).Next(); !errors.Is(err, ErrBadMagic) {
				t.Errorf("%s, %d words: Reader.Next: %v, want ErrBadMagic", name, words, err)
			}
		}
	}
}

// TestDecodeErrors drives every validation branch with a purpose-built
// malformed frame and checks the sentinel error taxonomy.
func TestDecodeErrors(t *testing.T) {
	good := encode(t, Header{From: 1, To: 2}, []float64{1, 2, 3})
	body := good[PrefixLen:]

	if _, err := BodyLen([]byte{1, 2}); !errors.Is(err, ErrShortPrefix) {
		t.Errorf("short prefix: %v", err)
	}
	short := make([]byte, PrefixLen)
	put32(short, 4) // below bodyOverhead
	if _, err := BodyLen(short); !errors.Is(err, ErrBadLength) {
		t.Errorf("undersized body length: %v", err)
	}
	put32(short, 16+8*MaxWords+8)
	if _, err := BodyLen(short); !errors.Is(err, ErrPayloadTooLarge) {
		t.Errorf("oversized body length: %v", err)
	}
	put32(short, 16+3) // not word-aligned
	if _, err := BodyLen(short); !errors.Is(err, ErrBadLength) {
		t.Errorf("unaligned body length: %v", err)
	}

	if _, err := PayloadWords(body[:10]); !errors.Is(err, ErrTruncated) {
		t.Errorf("truncated body: %v", err)
	}
	lie := append([]byte(nil), body...)
	put32(lie[8:], 7) // nwords claims more than the body holds
	if _, err := PayloadWords(lie); !errors.Is(err, ErrLengthMismatch) {
		t.Errorf("nwords mismatch: %v", err)
	}
	put32(lie[8:], MaxWords+1)
	if _, err := PayloadWords(lie); !errors.Is(err, ErrPayloadTooLarge) {
		t.Errorf("nwords over cap: %v", err)
	}

	bad := append([]byte(nil), body...)
	put32(bad, 0xdeadbeef)
	if _, err := DecodeBody(bad, make([]float64, 3)); !errors.Is(err, ErrBadMagic) {
		t.Errorf("bad magic: %v", err)
	}
	flip := append([]byte(nil), body...)
	flip[22] ^= 0x40 // payload bit
	if _, err := DecodeBody(flip, make([]float64, 3)); !errors.Is(err, ErrBadCRC) {
		t.Errorf("bit flip: %v", err)
	}
	if _, err := DecodeBody(body, make([]float64, 2)); err == nil {
		t.Error("undersized dst accepted")
	}
	if _, err := DecodeBody(body, make([]float64, 3)); err != nil {
		t.Errorf("pristine body rejected: %v", err)
	}
}

// TestAppendFrameSteadyStateAllocs: once the scratch slice has grown to
// the largest frame, encoding allocates nothing — the property the TCP
// writer's zero-alloc steady state rests on. Decoding into a fixed
// buffer is likewise allocation-free.
func TestAppendFrameSteadyStateAllocs(t *testing.T) {
	payload := make([]float64, 1000)
	for i := range payload {
		payload[i] = float64(i)
	}
	var scratch []byte
	h := Header{From: 1, To: 2}
	scratch = AppendFrame(scratch[:0], h, payload) // warm the scratch
	body := append([]byte(nil), scratch[PrefixLen:]...)
	dst := make([]float64, len(payload))

	if n := testing.AllocsPerRun(100, func() {
		scratch = AppendFrame(scratch[:0], h, payload)
	}); n != 0 {
		t.Errorf("AppendFrame steady state allocates %.1f/op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := DecodeBody(body, dst); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("DecodeBody steady state allocates %.1f/op, want 0", n)
	}
}
