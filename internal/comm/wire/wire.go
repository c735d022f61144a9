// Package wire is the binary frame codec of the TCP transport: a
// length-prefixed, CRC-protected encoding of one comm.Frame.
//
// Frame layout (all integers little-endian):
//
//	offset size field
//	     0    4 body length  n = 16 + 8·nwords (everything after this u32)
//	     4    4 magic        "SGD3" (0x33444753)
//	     8    2 from         sender transport rank
//	    10    2 to           receiver transport rank
//	    12    4 nwords       payload word count
//	    16  8·w payload      float64 words, IEEE-754 bits
//	   end    4 crc          CRC-32C (Castagnoli) over bytes [4, end-4)
//
// The decoder validates in dependency order — prefix bounds before any
// read of the body, the magic (which names the layout, so another
// layout's frame is ErrBadMagic, not misparsed) before nwords against
// the body length, both before any payload allocation, CRC before
// trusting a single field — so truncated, oversized, bit-flipped or
// garbage frames error cleanly without panicking or over-allocating
// (pinned by the fuzz targets).
//
// On a little-endian host the payload section of a frame is the
// []float64's own memory, so the codec moves it with one copy (or none:
// PayloadBytes hands the transport a byte view to write from and
// Reader reads the socket straight into the destination) and one
// CRC pass. On a big-endian host the same functions fall back to the
// per-word loops, which are also the reference the tests compare the
// fast path against. The choice is made from the platform alone.
package wire

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"unsafe"
)

const (
	// Magic identifies a frame body ("SGD3" little-endian).
	Magic = 0x33444753
	// PrefixLen is the size of the length prefix.
	PrefixLen = 4
	// HeaderLen is the fixed part of a frame in front of the payload:
	// length prefix, magic, from, to, nwords.
	HeaderLen = 16
	// TrailerLen is the CRC that follows the payload.
	TrailerLen = 4
	// bodyOverhead is the non-payload portion of a frame body:
	// magic(4) + from(2) + to(2) + nwords(4) + crc(4).
	bodyOverhead = HeaderLen - PrefixLen + TrailerLen
	// MaxWords caps the payload a frame may declare (1 GiB of float64s);
	// a decoder rejects larger claims before allocating anything.
	MaxWords = 1 << 27
	// MaxRank is the largest transport rank the u16 from/to fields hold.
	MaxRank = 1<<16 - 1
	// readSlice bounds one read of Reader.Payload so the CRC pass that
	// follows finds the bytes still in cache.
	readSlice = 64 << 10
)

// Decode errors. Wrapped with detail via %w, so errors.Is works.
var (
	ErrShortPrefix     = errors.New("wire: short length prefix")
	ErrBadLength       = errors.New("wire: invalid body length")
	ErrPayloadTooLarge = errors.New("wire: payload exceeds cap")
	ErrTruncated       = errors.New("wire: truncated body")
	ErrLengthMismatch  = errors.New("wire: nwords disagrees with body length")
	ErrBadMagic        = errors.New("wire: bad magic")
	ErrBadCRC          = errors.New("wire: CRC mismatch")
)

// castagnoli is the CRC-32C table (hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// littleEndian reports whether the host stores a float64 in the byte
// order the wire uses, i.e. whether a payload's memory is its encoding.
var littleEndian = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// Header is the frame metadata around the payload.
type Header struct{ From, To int }

// le{16,32,64} avoid importing encoding/binary for a few fixed offsets.
func put16(b []byte, v uint16) { b[0] = byte(v); b[1] = byte(v >> 8) }
func put32(b []byte, v uint32) {
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
}
func put64(b []byte, v uint64) {
	put32(b, uint32(v))
	put32(b[4:], uint32(v>>32))
}
func get16(b []byte) uint16 { return uint16(b[0]) | uint16(b[1])<<8 }
func get32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}
func get64(b []byte) uint64 { return uint64(get32(b)) | uint64(get32(b[4:]))<<32 }

// FrameLen returns the encoded size of a frame carrying w payload words.
func FrameLen(w int) int { return HeaderLen + 8*w + TrailerLen }

// memBytes views p's memory as bytes, in host order.
func memBytes(p []float64) []byte {
	if len(p) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&p[0])), 8*len(p))
}

// PayloadBytes returns payload's own memory as the bytes its words take
// on the wire, for a transport to write from without an encode pass. ok
// is false on a big-endian host, where no such view exists and the
// caller encodes with AppendFrame.
func PayloadBytes(payload []float64) (b []byte, ok bool) {
	if !littleEndian {
		return nil, false
	}
	return memBytes(payload), true
}

// PutHeader encodes the length prefix and header of a frame carrying w
// payload words into b.
func PutHeader(b *[HeaderLen]byte, h Header, w int) {
	if w > MaxWords {
		panic(fmt.Sprintf("wire: payload of %d words exceeds MaxWords %d", w, MaxWords))
	}
	if uint(h.From) > MaxRank || uint(h.To) > MaxRank {
		panic(fmt.Sprintf("wire: rank %d→%d outside the u16 frame fields", h.From, h.To))
	}
	put32(b[0:], uint32(bodyOverhead+8*w))
	put32(b[4:], Magic)
	put16(b[8:], uint16(h.From))
	put16(b[10:], uint16(h.To))
	put32(b[12:], uint32(w))
}

// headerFields decodes the metadata at the start of a frame body (the
// header after the length prefix) whose CRC has passed.
func headerFields(body []byte) Header {
	return Header{From: int(get16(body[4:])), To: int(get16(body[6:]))}
}

// PutTrailer encodes a frame's finished CRC into b.
func PutTrailer(b *[TrailerLen]byte, crc uint32) { put32(b[:], crc) }

// UpdateCRC extends a frame's running CRC-32C (0 to start) over the next
// bytes of its checked region: the header after the length prefix, then
// the payload.
func UpdateCRC(crc uint32, b []byte) uint32 { return crc32.Update(crc, castagnoli, b) }

// AppendFrame appends one complete frame — length prefix, header,
// payload, CRC — to dst and returns the extended slice. Reusing dst
// across calls makes the steady state allocation-free once it has grown
// to the largest frame (pinned by TestAppendFrameSteadyStateAllocs).
func AppendFrame(dst []byte, h Header, payload []float64) []byte {
	return appendFrame(dst, h, payload, littleEndian)
}

// appendFrame encodes the payload with one copy when native (the host
// is little-endian), word by word otherwise.
func appendFrame(dst []byte, h Header, payload []float64, native bool) []byte {
	need := FrameLen(len(payload))
	off := len(dst)
	if tot := off + need; tot > cap(dst) {
		grown := make([]byte, off, tot)
		copy(grown, dst)
		dst = grown
	}
	dst = dst[: off+need : cap(dst)]
	b := dst[off:]
	PutHeader((*[HeaderLen]byte)(b), h, len(payload))
	p := b[HeaderLen : len(b)-TrailerLen]
	if native {
		copy(p, memBytes(payload))
	} else {
		for i, v := range payload {
			put64(p[8*i:], math.Float64bits(v))
		}
	}
	put32(b[len(b)-TrailerLen:], crc32.Checksum(b[PrefixLen:len(b)-TrailerLen], castagnoli))
	return dst
}

// BodyLen parses the length prefix and validates it against the framing
// invariants (minimum size, payload cap, word alignment), returning the
// number of body bytes that follow the prefix. It never reads past
// PrefixLen bytes.
func BodyLen(prefix []byte) (int, error) {
	if len(prefix) < PrefixLen {
		return 0, fmt.Errorf("%w: %d bytes", ErrShortPrefix, len(prefix))
	}
	n := get32(prefix)
	if n < bodyOverhead {
		return 0, fmt.Errorf("%w: %d < minimum %d", ErrBadLength, n, bodyOverhead)
	}
	if n > bodyOverhead+8*MaxWords {
		return 0, fmt.Errorf("%w: body of %d bytes", ErrPayloadTooLarge, n)
	}
	if (n-bodyOverhead)%8 != 0 {
		return 0, fmt.Errorf("%w: %d bytes is not header + whole words", ErrBadLength, n)
	}
	return int(n), nil
}

// PayloadWords checks the magic, then the body's declared word count
// against its actual length — before any allocation, so a hostile
// nwords cannot force an oversized buffer.
func PayloadWords(body []byte) (int, error) {
	if len(body) < bodyOverhead {
		return 0, fmt.Errorf("%w: %d bytes", ErrTruncated, len(body))
	}
	if got := get32(body); got != Magic {
		return 0, fmt.Errorf("%w: %#08x", ErrBadMagic, got)
	}
	return checkWords(get32(body[8:]), len(body))
}

// checkWords validates a declared word count against the body length.
func checkWords(w uint32, bodyLen int) (int, error) {
	if w > MaxWords {
		return 0, fmt.Errorf("%w: %d words", ErrPayloadTooLarge, w)
	}
	if bodyLen != bodyOverhead+8*int(w) {
		return 0, fmt.Errorf("%w: %d words in %d bytes", ErrLengthMismatch, w, bodyLen)
	}
	return int(w), nil
}

// DecodeBody validates a frame body (magic, sizes, CRC) and decodes its
// payload into dst, which must be sized by PayloadWords. Nothing is
// trusted — not even the header fields — until the CRC has passed.
func DecodeBody(body []byte, dst []float64) (Header, error) {
	return decodeBody(body, dst, littleEndian)
}

// decodeBody is appendFrame's inverse, with the same native switch.
func decodeBody(body []byte, dst []float64, native bool) (Header, error) {
	w, err := PayloadWords(body)
	if err != nil {
		return Header{}, err
	}
	stored := get32(body[len(body)-TrailerLen:])
	if sum := crc32.Checksum(body[:len(body)-TrailerLen], castagnoli); sum != stored {
		return Header{}, fmt.Errorf("%w: computed %#08x, stored %#08x", ErrBadCRC, sum, stored)
	}
	if len(dst) != w {
		return Header{}, fmt.Errorf("wire: DecodeBody dst has %d words, frame carries %d", len(dst), w)
	}
	p := body[HeaderLen-PrefixLen : len(body)-TrailerLen]
	if native {
		copy(memBytes(dst), p)
	} else {
		for i := range dst {
			dst[i] = math.Float64frombits(get64(p[8*i:]))
		}
	}
	return headerFields(body), nil
}

// Reader reads frames off a byte stream in two steps, so the caller can
// size the payload buffer between them and the payload never passes
// through a staging copy. It holds the frame's fixed-size parts; reading
// allocates nothing per frame.
type Reader struct {
	r       io.Reader
	hdr     [HeaderLen]byte
	trailer [TrailerLen]byte
}

// NewReader returns a Reader of the frames on r.
func NewReader(r io.Reader) *Reader { return &Reader{r: r} }

// Next reads the next frame's length prefix and header and validates
// everything that can be checked before the payload exists — length
// bounds, magic, nwords against the length — so the caller sizes the
// payload buffer from a vetted count, which it returns. A stream that
// ends cleanly before the first byte yields a bare io.EOF; one that ends
// inside the header, io.ErrUnexpectedEOF.
func (d *Reader) Next() (int, error) {
	if _, err := io.ReadFull(d.r, d.hdr[:PrefixLen]); err != nil {
		return 0, err
	}
	n, err := BodyLen(d.hdr[:PrefixLen])
	if err != nil {
		return 0, err
	}
	if _, err := io.ReadFull(d.r, d.hdr[PrefixLen:]); err != nil {
		return 0, midFrame(err)
	}
	if got := get32(d.hdr[PrefixLen:]); got != Magic {
		return 0, fmt.Errorf("%w: %#08x", ErrBadMagic, got)
	}
	return checkWords(get32(d.hdr[12:]), n)
}

// Payload reads the payload and CRC trailer of the frame Next announced
// into dst, which must hold the word count Next returned. On a
// little-endian host the bytes land directly in dst's memory, at most
// readSlice per read, and the CRC rolls over each piece as it arrives.
// The header fields are decoded, and dst is meaningful, only when the
// CRC has passed.
func (d *Reader) Payload(dst []float64) (Header, error) {
	return d.payload(dst, littleEndian)
}

// payload always reads into dst's memory; when not native it then
// decodes the words in place (get64 loads a word's eight bytes before
// the store overwrites them).
func (d *Reader) payload(dst []float64, native bool) (Header, error) {
	if w := get32(d.hdr[12:]); uint64(len(dst)) != uint64(w) {
		return Header{}, fmt.Errorf("wire: Payload dst has %d words, frame carries %d", len(dst), w)
	}
	crc := UpdateCRC(0, d.hdr[PrefixLen:])
	for rest := memBytes(dst); len(rest) > 0; {
		n, err := d.r.Read(rest[:min(len(rest), readSlice)])
		crc = UpdateCRC(crc, rest[:n])
		rest = rest[n:]
		if err != nil && len(rest) > 0 {
			return Header{}, midFrame(err)
		}
	}
	if _, err := io.ReadFull(d.r, d.trailer[:]); err != nil {
		return Header{}, midFrame(err)
	}
	if stored := get32(d.trailer[:]); crc != stored {
		return Header{}, fmt.Errorf("%w: computed %#08x, stored %#08x", ErrBadCRC, crc, stored)
	}
	if !native {
		b := memBytes(dst)
		for i := range dst {
			dst[i] = math.Float64frombits(get64(b[8*i:]))
		}
	}
	return headerFields(d.hdr[PrefixLen:]), nil
}

// midFrame turns an end of stream inside a frame into
// io.ErrUnexpectedEOF.
func midFrame(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}
