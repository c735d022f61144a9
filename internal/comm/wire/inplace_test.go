package wire

import (
	"bytes"
	"errors"
	"io"
	"math"
	"math/rand"
	"testing"
	"testing/iotest"
)

// The in-place paths (one copy, or a read straight into the payload's
// memory) are checked differentially against the per-word loops, which
// are correct on any host by construction. On a big-endian host both
// arguments of every comparison below take the loops, so the tests pass
// trivially there and bite on the hosts that run the fast path.

// awkwardPayload is n words cycling through the values an encoder could
// mangle without a plain-number test noticing — signed zeros,
// subnormals, infinities, NaNs with arbitrary payload bits — followed by
// random bit patterns.
func awkwardPayload(n int, seed int64) []float64 {
	special := []uint64{
		0x0000000000000000, 0x8000000000000000, // ±0
		0x0000000000000001, 0x800fffffffffffff, // subnormals
		0x7ff0000000000000, 0xfff0000000000000, // ±Inf
		0x7ff8000000000000, 0x7ff0000000000001, 0xfff123456789abcd, 0x7fffffffffffffff, // NaNs
		0x0102030405060708, // every byte distinct: a byte-order slip shows
	}
	rng := rand.New(rand.NewSource(seed))
	p := make([]float64, n)
	for i := range p {
		bits := rng.Uint64()
		if i < 2*len(special) {
			bits = special[i%len(special)]
		}
		p[i] = math.Float64frombits(bits)
	}
	return p
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// errClass maps an error to the sentinel it wraps (nil stays nil), so
// two decoders can be compared on why they rejected a frame.
func errClass(err error) error {
	for _, s := range []error{ErrShortPrefix, ErrBadLength, ErrPayloadTooLarge, ErrTruncated,
		ErrLengthMismatch, ErrBadMagic, ErrBadCRC, io.ErrUnexpectedEOF, io.EOF} {
		if errors.Is(err, s) {
			return s
		}
	}
	return err
}

// referenceDecode is the portable pipeline over a whole stream in
// memory: BodyLen → PayloadWords → per-word decodeBody. complete is
// false when the stream ends before the frame its prefix announces does.
func referenceDecode(data []byte) (h Header, payload []float64, complete bool, err error) {
	if len(data) < PrefixLen {
		return Header{}, nil, false, nil
	}
	n, err := BodyLen(data[:PrefixLen])
	if err != nil {
		return Header{}, nil, true, err
	}
	if n > len(data)-PrefixLen {
		return Header{}, nil, false, nil
	}
	body := data[PrefixLen : PrefixLen+n]
	w, err := PayloadWords(body)
	if err != nil {
		return Header{}, nil, true, err
	}
	payload = make([]float64, w)
	h, err = decodeBody(body, payload, false)
	return h, payload, true, err
}

// maxReader hands out at most max bytes per Read.
type maxReader struct {
	r   io.Reader
	max int
}

func (m maxReader) Read(p []byte) (int, error) { return m.r.Read(p[:min(len(p), m.max)]) }

// streams feeds a byte stream to the streaming reader a byte at a time,
// 64 KiB at a time and all at once.
var streams = []struct {
	name string
	open func(data []byte) io.Reader
}{
	{"1B", func(data []byte) io.Reader { return iotest.OneByteReader(bytes.NewReader(data)) }},
	{"64KiB", func(data []byte) io.Reader { return maxReader{bytes.NewReader(data), 64 << 10} }},
	{"whole", func(data []byte) io.Reader { return bytes.NewReader(data) }},
}

// streamDecode reads one frame off r as the TCP reader does: Next, size
// the buffer, Payload. A header that announces more payload than
// avail bytes could hold is not given a buffer (a fuzzed length must not
// cost a gigabyte); the stream is then truncated by construction.
func streamDecode(r io.Reader, avail int, native bool) (Header, []float64, error) {
	d := NewReader(r)
	w, err := d.Next()
	if err != nil {
		return Header{}, nil, err
	}
	if 8*w > avail {
		return Header{}, nil, io.ErrUnexpectedEOF
	}
	dst := make([]float64, w)
	h, err := d.payload(dst, native)
	return h, dst, err
}

// checkStreamAgrees asserts that the streaming reader, on every kind of
// io.Reader and on both payload paths, reaches the reference's verdict
// on data.
func checkStreamAgrees(t *testing.T, data []byte) {
	t.Helper()
	wantH, want, complete, wantErr := referenceDecode(data)
	for _, stream := range streams {
		name := stream.name
		for _, native := range []bool{littleEndian, false} {
			h, got, err := streamDecode(stream.open(data), len(data), native)
			switch {
			case !complete:
				// The reference would wait for more bytes; a reader at the
				// end of its stream must say so, or have already rejected
				// the header it did get.
				if err == nil {
					t.Fatalf("%s native=%v: accepted a truncated stream of %d bytes", name, native, len(data))
				}
				switch errClass(err) {
				case io.EOF:
					if len(data) != 0 {
						t.Fatalf("%s: bare io.EOF inside a frame (%d bytes)", name, len(data))
					}
				case io.ErrUnexpectedEOF, ErrLengthMismatch, ErrPayloadTooLarge, ErrBadMagic:
				default:
					t.Fatalf("%s native=%v: truncated stream: %v", name, native, err)
				}
			case errClass(err) != errClass(wantErr):
				t.Fatalf("%s native=%v: stream says %v, reference says %v", name, native, err, wantErr)
			case err == nil:
				if h != wantH {
					t.Fatalf("%s native=%v: header %+v, reference %+v", name, native, h, wantH)
				}
				if !sameBits(got, want) {
					t.Fatalf("%s native=%v: payload bits differ from the reference", name, native)
				}
			}
		}
	}
}

// TestInPlaceEncodeMatchesPortable: the one-copy encoder and decoder
// produce, bit for bit, what the per-word loops produce, from the empty
// payload to one that spans several read slices.
func TestInPlaceEncodeMatchesPortable(t *testing.T) {
	h := Header{From: 513, To: 65535}
	for _, n := range []int{0, 1, 7, 22, 1000, readSlice/8 + 3, 3*readSlice/8 + 5} {
		payload := awkwardPayload(n, int64(n))
		fast := appendFrame([]byte("keep"), h, payload, littleEndian)
		ref := appendFrame([]byte("keep"), h, payload, false)
		if !bytes.Equal(fast, ref) {
			t.Fatalf("%d words: in-place frame differs from the portable one", n)
		}
		frame := ref[len("keep"):]

		view, ok := PayloadBytes(payload)
		if ok != littleEndian {
			t.Fatalf("PayloadBytes available=%v on a host with littleEndian=%v", ok, littleEndian)
		}
		if ok && !bytes.Equal(view, frame[HeaderLen:len(frame)-TrailerLen]) {
			t.Fatalf("%d words: PayloadBytes is not the frame's payload section", n)
		}
		var hdr [HeaderLen]byte
		var trailer [TrailerLen]byte
		PutHeader(&hdr, h, n)
		if !bytes.Equal(hdr[:], frame[:HeaderLen]) {
			t.Fatalf("%d words: PutHeader differs from the frame's first %d bytes", n, HeaderLen)
		}
		// The CRC rolled over header then payload pieces is the frame's.
		crc := UpdateCRC(0, hdr[PrefixLen:])
		section := frame[HeaderLen : len(frame)-TrailerLen]
		crc = UpdateCRC(UpdateCRC(crc, section[:len(section)/3]), section[len(section)/3:])
		PutTrailer(&trailer, crc)
		if !bytes.Equal(trailer[:], frame[len(frame)-TrailerLen:]) {
			t.Fatalf("%d words: rolled CRC %x, frame carries %x", n, trailer, frame[len(frame)-TrailerLen:])
		}

		fastDst, refDst := make([]float64, n), make([]float64, n)
		fh, err := decodeBody(frame[PrefixLen:], fastDst, littleEndian)
		if err != nil {
			t.Fatalf("%d words: in-place decode: %v", n, err)
		}
		rh, err := decodeBody(frame[PrefixLen:], refDst, false)
		if err != nil {
			t.Fatalf("%d words: portable decode: %v", n, err)
		}
		if fh != rh {
			t.Fatalf("%d words: decoded headers differ: %+v vs %+v", n, fh, rh)
		}
		if !sameBits(fastDst, payload) || !sameBits(refDst, payload) {
			t.Fatalf("%d words: decode changed payload bits", n)
		}
		checkStreamAgrees(t, frame)
	}
}

// TestStreamRejectsWhatDecodeBodyRejects drives every validation branch
// with a purpose-built malformed stream of a frame large enough to span
// read slices, plus truncation at every interesting offset.
func TestStreamRejectsWhatDecodeBodyRejects(t *testing.T) {
	const words = readSlice/8 + 100
	good := AppendFrame(nil, Header{From: 1, To: 2}, awkwardPayload(words, 1))
	mutate := func(f func(b []byte)) []byte {
		b := append([]byte(nil), good...)
		f(b)
		return b
	}
	cases := []struct {
		name string
		data []byte
		want error // nil: accepted
	}{
		{"pristine", good, nil},
		{"payload bit", mutate(func(b []byte) { b[HeaderLen+readSlice+17] ^= 0x10 }), ErrBadCRC},
		{"first payload bit", mutate(func(b []byte) { b[HeaderLen] ^= 0x01 }), ErrBadCRC},
		// Bytes 16–19 held the SGD2 layout's seq; they are payload now.
		{"seq bit", mutate(func(b []byte) { b[17] ^= 0x04 }), ErrBadCRC},
		{"to bit", mutate(func(b []byte) { b[11] ^= 0x04 }), ErrBadCRC},
		{"from bit", mutate(func(b []byte) { b[8] ^= 0x01 }), ErrBadCRC},
		{"trailer bit", mutate(func(b []byte) { b[len(b)-1] ^= 0x80 }), ErrBadCRC},
		{"magic bit", mutate(func(b []byte) { b[5] ^= 0x02 }), ErrBadMagic},
		{"nwords bit", mutate(func(b []byte) { b[12] ^= 0x01 }), ErrLengthMismatch},
		{"nwords over cap", mutate(func(b []byte) { put32(b[12:], MaxWords+1) }), ErrPayloadTooLarge},
		{"SGD1 layout", sgd1Frame(1, 2, 5, 0.5, awkwardPayload(words, 1)), ErrBadMagic},
		{"previous layout", sgd2Frame(1, 2, 5, awkwardPayload(words, 1)), ErrBadMagic},
		{"length under minimum", mutate(func(b []byte) { put32(b, 8) }), ErrBadLength},
		{"length unaligned", mutate(func(b []byte) { put32(b, get32(b)+3) }), ErrBadLength},
		{"length over cap", mutate(func(b []byte) { put32(b, ^uint32(0)) }), ErrPayloadTooLarge},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, _, _, err := referenceDecode(tc.data); errClass(err) != tc.want {
				t.Fatalf("reference says %v, case expects %v", err, tc.want)
			}
			checkStreamAgrees(t, tc.data)
		})
	}
	for _, cut := range []int{0, 1, PrefixLen, PrefixLen + 1, HeaderLen - 1, HeaderLen, HeaderLen + 1,
		HeaderLen + readSlice, len(good) - TrailerLen, len(good) - 1} {
		checkStreamAgrees(t, good[:cut])
	}
	// Two frames back to back: the reader stops exactly at the boundary.
	second := AppendFrame(nil, Header{From: 2, To: 1}, []float64{7})
	d := NewReader(bytes.NewReader(append(append([]byte(nil), good...), second...)))
	for i, wantWords := range []int{words, 1} {
		w, err := d.Next()
		if err != nil || w != wantWords {
			t.Fatalf("frame %d: Next = %d, %v; want %d words", i, w, err, wantWords)
		}
		if _, err := d.Payload(make([]float64, w)); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
	}
	if _, err := d.Next(); err != io.EOF {
		t.Fatalf("after the last frame: %v, want a bare io.EOF", err)
	}
}

// TestReaderSteadyStateAllocs: streaming a frame into a caller's buffer
// allocates nothing, on either payload path.
func TestReaderSteadyStateAllocs(t *testing.T) {
	frame := AppendFrame(nil, Header{From: 1, To: 2}, awkwardPayload(1000, 2))
	dst := make([]float64, 1000)
	src := bytes.NewReader(nil)
	d := NewReader(src)
	for _, native := range []bool{littleEndian, false} {
		if n := testing.AllocsPerRun(100, func() {
			src.Reset(frame)
			if _, err := d.Next(); err != nil {
				t.Fatal(err)
			}
			if _, err := d.payload(dst, native); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("streaming read (native=%v) allocates %.1f/op, want 0", native, n)
		}
	}
}

// FuzzFrameStream is FuzzFrameDecode's differential twin over the same
// corpus: on any byte stream the streaming reader — fed a byte at a
// time, 64 KiB at a time and all at once, on the in-place and the
// per-word payload path — accepts or rejects as the portable
// whole-buffer pipeline does, for the same class of reason, with the
// same payload bits; and what decodes cleanly re-encodes in place to the
// bytes it came from.
func FuzzFrameStream(f *testing.F) {
	for _, seed := range frameSeeds() {
		f.Add(seed)
	}
	f.Add(AppendFrame(nil, Header{From: 2, To: 1}, awkwardPayload(40, 3)))

	f.Fuzz(func(t *testing.T, data []byte) {
		checkStreamAgrees(t, data)
		h, payload, complete, err := referenceDecode(data)
		if !complete || err != nil {
			return
		}
		frame := data[:FrameLen(len(payload))]
		if fast := appendFrame(nil, h, payload, littleEndian); !bytes.Equal(fast, frame) {
			t.Fatalf("in-place re-encode differs:\n got %x\nwant %x", fast, frame)
		}
		dst := make([]float64, len(payload))
		if _, err := decodeBody(frame[PrefixLen:], dst, littleEndian); err != nil || !sameBits(dst, payload) {
			t.Fatalf("in-place decode disagrees with the portable one (err %v)", err)
		}
	})
}
