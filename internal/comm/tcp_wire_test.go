package comm

import (
	"errors"
	"io"
	"math"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sasgd/internal/comm/wire"
)

// loopbackPair returns the two ends of one real TCP connection over
// 127.0.0.1.
func loopbackPair(t *testing.T) (dialed, accepted *net.TCPConn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	d, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	a, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close(); a.Close() })
	return d.(*net.TCPConn), a.(*net.TCPConn)
}

// TestTCPReaderLargeFrameCorruption: one flipped bit anywhere in a frame
// larger than the staging buffer — payload, header field, CRC trailer —
// reaches the reader over a real loopback link as a CRC failure, nothing
// is delivered or counted, and the pooled buffer the payload was read
// into is back in the pool. A bit in the header's own bounds (nwords) is
// caught before a buffer is acquired at all, and a stream cut inside the
// payload is a mid-frame truncation, as it was when the body was staged.
func TestTCPReaderLargeFrameCorruption(t *testing.T) {
	// One P, so a buffer released to the sync.Pool is the one the next Get
	// on this goroutine returns and the pool's balance can be observed.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))

	const from, to, words = 1, 0, 3 * wireBufSize / 8 // a 192 KiB payload
	payload := make([]float64, words)
	for i := range payload {
		payload[i] = math.Float64frombits(0x0102030405060708 * uint64(i+1))
	}
	good := wire.AppendFrame(nil, wire.Header{From: from, To: to}, payload)
	class := sizeClass(words)

	cases := []struct {
		name     string
		mutate   func(b []byte) []byte
		want     error // nil: delivered
		acquired bool  // the reader got as far as taking a pooled buffer
	}{
		{"pristine", func(b []byte) []byte { return b }, nil, true},
		{"payload bit", func(b []byte) []byte { b[wire.HeaderLen+2*wireBufSize+5] ^= 0x20; return b }, wire.ErrBadCRC, true},
		// Bytes 16–19 held the SGD2 layout's seq; they are payload now.
		{"header seq bit", func(b []byte) []byte { b[18] ^= 0x01; return b }, wire.ErrBadCRC, true},
		{"header from bit", func(b []byte) []byte { b[8] ^= 0x01; return b }, wire.ErrBadCRC, true},
		{"header to bit", func(b []byte) []byte { b[10] ^= 0x01; return b }, wire.ErrBadCRC, true},
		{"trailer bit", func(b []byte) []byte { b[len(b)-2] ^= 0x08; return b }, wire.ErrBadCRC, true},
		{"header nwords bit", func(b []byte) []byte { b[13] ^= 0x01; return b }, wire.ErrLengthMismatch, false},
		{"truncated mid-payload", func(b []byte) []byte { return b[:wire.HeaderLen+wireBufSize+100] }, io.ErrUnexpectedEOF, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			src, dst := loopbackPair(t)
			stream := tc.mutate(append([]byte(nil), good...))
			go func() {
				src.Write(stream)
				src.CloseWrite()
			}()

			tr := &TCPTransport{p: 2, done: make(chan struct{})}
			f, err := tr.readFrame(wire.NewReader(newFillReader(dst)), from, to)
			if !errors.Is(err, tc.want) || (tc.want == nil && err != nil) {
				t.Fatalf("readFrame: %v, want %v", err, tc.want)
			}
			ws := tr.WireStats()
			if err != nil {
				if f.Data != nil || f.pb != nil {
					t.Errorf("a rejected frame was delivered: %d words", len(f.Data))
				}
				if ws.BytesIn != 0 || ws.FramesIn != 0 {
					t.Errorf("a rejected frame was counted: %+v", ws)
				}
			} else {
				if ws.BytesIn != int64(len(good)) || ws.FramesIn != 1 {
					t.Errorf("delivered frame counted as %+v, want %d bytes in 1 frame", ws, len(good))
				}
				if len(f.Data) != words {
					t.Fatalf("delivered frame: %d words", len(f.Data))
				}
				for i := range payload {
					if math.Float64bits(f.Data[i]) != math.Float64bits(payload[i]) {
						t.Fatalf("payload[%d] changed on the wire", i)
					}
				}
				tr.pool.release(f.pb)
			}
			if raceEnabled {
				return // under -race sync.Pool drops a quarter of its Puts by design
			}
			// The pool started empty, so it holds a buffer of this class
			// exactly when the reader acquired one and gave it back.
			pb, _ := tr.pool.classes[class].Get().(*poolBuf)
			if (pb != nil) != tc.acquired {
				t.Errorf("pool holds a buffer: %v, want %v", pb != nil, tc.acquired)
			}
			if extra := tr.pool.classes[class].Get(); extra != nil {
				t.Error("pool holds more buffers than the reader can have acquired")
			}
		})
	}
}

// countingConn records how the reader asks a connection for bytes.
type countingConn struct {
	net.Conn // nil: only Read is used
	src      io.Reader
	stage    []byte // the reader's staging buffer
	staged   int    // bytes read into stage
	direct   int    // bytes read into anything else
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.src.Read(p)
	if &p[0] == &c.stage[0] {
		c.staged += n
	} else {
		c.direct += n
	}
	return n, err
}

// TestFillReaderLargePayloadBypassesStaging pins the coupling between
// wire.Reader's read size and the staging buffer: of a frame much larger
// than wireBufSize, at most the first and the last buffer-full go
// through the staging copy; everything between is read from the
// connection straight into the destination.
func TestFillReaderLargePayloadBypassesStaging(t *testing.T) {
	const words = 1 << 17 // 1 MiB
	payload := make([]float64, words)
	for i := range payload {
		payload[i] = float64(i)
	}
	frame := wire.AppendFrame(nil, wire.Header{From: 0, To: 1}, payload)
	fr := newFillReader(nil)
	conn := &countingConn{src: &sliceReader{frame, 100 << 10}, stage: fr.buf}
	fr.conn = conn

	rd := wire.NewReader(fr)
	w, err := rd.Next()
	if err != nil || w != words {
		t.Fatalf("Next = %d, %v", w, err)
	}
	dst := make([]float64, w)
	if _, err := rd.Payload(dst); err != nil {
		t.Fatal(err)
	}
	for i := range payload {
		if dst[i] != payload[i] {
			t.Fatalf("payload[%d] = %g", i, dst[i])
		}
	}
	if _, ok := wire.PayloadBytes(nil); !ok {
		return // big-endian host: same reads, but nothing below is about them
	}
	if conn.staged > 2*wireBufSize {
		t.Errorf("%d of %d bytes went through the staging buffer, want ≤ %d", conn.staged, len(frame), 2*wireBufSize)
	}
	if conn.staged+conn.direct != len(frame) {
		t.Errorf("read %d staged + %d direct bytes of a %d-byte frame", conn.staged, conn.direct, len(frame))
	}
}

// sliceReader serves b at most max bytes per Read, as a socket serves
// what has arrived so far.
type sliceReader struct {
	b   []byte
	max int
}

func (s *sliceReader) Read(p []byte) (int, error) {
	if len(s.b) == 0 {
		return 0, io.EOF
	}
	n := copy(p[:min(len(p), s.max)], s.b)
	s.b = s.b[n:]
	return n, nil
}

// TestFlushWriterCountsWhatReachedTheSocket: a frame sitting in the
// coalescing buffer is not traffic yet. When the flush that would have
// carried it fails because the peer has gone away, neither it nor
// anything written afterwards — coalesced or in place — is counted.
func TestFlushWriterCountsWhatReachedTheSocket(t *testing.T) {
	ours, peer := net.Pipe()
	defer ours.Close()
	var bytesOut, framesOut atomic.Int64
	w := newFlushWriter(ours, &bytesOut, &framesOut)
	h := wire.Header{From: 0, To: 1}
	small := []float64{1, 2, 3}
	large := make([]float64, wireBufSize/8)

	received := make(chan int)
	go func() {
		b := make([]byte, 2*wire.FrameLen(len(small)))
		n, _ := io.ReadFull(peer, b)
		received <- n
	}()
	w.frame(h, small)
	w.frame(h, small)
	if bytesOut.Load() != 0 || framesOut.Load() != 0 {
		t.Fatalf("buffered frames already counted: %d bytes, %d frames", bytesOut.Load(), framesOut.Load())
	}
	w.flush()
	if got := <-received; got != 2*wire.FrameLen(len(small)) {
		t.Fatalf("peer received %d bytes", got)
	}
	if bytesOut.Load() != int64(2*wire.FrameLen(len(small))) || framesOut.Load() != 2 {
		t.Fatalf("after a good flush: %d bytes, %d frames", bytesOut.Load(), framesOut.Load())
	}

	peer.Close()
	before := [2]int64{bytesOut.Load(), framesOut.Load()}
	w.frame(h, small) // buffered, then lost with the failed flush
	w.flush()
	if w.err == nil {
		t.Fatal("flush to a closed peer succeeded")
	}
	w.frame(h, large)
	w.frame(h, small)
	w.flush()
	if after := [2]int64{bytesOut.Load(), framesOut.Load()}; after != before {
		t.Errorf("counters moved from %v to %v after the peer went away", before, after)
	}
}

// TestTCPStatsBalanceOnLoopback: on an all-local mesh every byte and
// frame written is one read, so once a run's collectives have completed
// — on both of the writer's paths — the two sides of TCPStats agree,
// before Close (which may legitimately drop frames in flight). A writer
// adds its frame after the write returns, which can be after the reader
// has delivered it, so the out side is given a moment to catch up.
func TestTCPStatsBalanceOnLoopback(t *testing.T) {
	const p = 3
	tr, err := NewTCPLoopback(p)
	if err != nil {
		t.Fatal(err)
	}
	g := NewTransportGroup(tr, nil, nil, nil)
	defer g.Close()
	for _, m := range []int{5, 4096, 40000} { // 40 000 words: in-place frames
		bufs, _ := makeBufs(p, m, int64(m))
		for round := 0; round < 3; round++ {
			runGroup(p, g, func(rank int) { g.AllreduceTree(rank, bufs[rank]) })
		}
	}
	ws := settledWireStats(tr)
	if ws.BytesOut != ws.BytesIn || ws.FramesOut != ws.FramesIn {
		t.Errorf("wire stats out of balance: %+v", ws)
	}
	// Tree allreduce: 2(p-1) frames per round.
	if want := int64(3 * 3 * 2 * (p - 1)); ws.FramesIn != want {
		t.Errorf("%d frames, want %d", ws.FramesIn, want)
	}
}

// settledWireStats snapshots the counters once the out side has caught
// up with the in side (or five seconds have passed): whoever writes a
// frame counts it after the write returns, which can be after the reader
// has delivered it.
func settledWireStats(tr *TCPTransport) TCPStats {
	deadline := time.Now().Add(5 * time.Second)
	ws := tr.WireStats()
	for (ws.BytesOut != ws.BytesIn || ws.FramesOut != ws.FramesIn) && time.Now().Before(deadline) {
		runtime.Gosched()
		ws = tr.WireStats()
	}
	return ws
}

// TestTCPInlineWriteKeepsSenderOrder: two goroutines hammer one link with
// tagged frames while the receiver stalls — long enough each time for
// the senders to get a backlog ahead, contending for the link's lock —
// and resumes. Each sender's frames must arrive in its own send order
// with nothing lost or duplicated, and once the link has drained the two
// sides of the wire counters agree.
func TestTCPInlineWriteKeepsSenderOrder(t *testing.T) {
	const senders, perSender, backlog = 2, 4000, 64
	tr, err := NewTCPLoopback(2)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	var sent atomic.Int64
	for s := 0; s < senders; s++ {
		go func(s int) {
			for i := 0; i < perSender; i++ {
				// Every 500th frame is large enough to leave in one vectored
				// write; the rest go through the coalescing buffer.
				words := 3
				if i%500 == 499 {
					words = wireBufSize / 8
				}
				data := make([]float64, words)
				data[0], data[1] = float64(s), float64(i)
				tr.Send(0, 1, Frame{Data: data})
				sent.Add(1)
			}
		}(s)
	}
	var next [senders]int
	for got := 0; got < senders*perSender; got++ {
		if got%1000 == 0 {
			// Stall until the senders are backlog frames ahead (or done).
			for sent.Load() < int64(min(got+backlog, senders*perSender)) {
				runtime.Gosched()
			}
		}
		f := tr.Recv(1, 0)
		s, i := int(f.Data[0]), int(f.Data[1])
		if i != next[s] {
			t.Fatalf("frame %d: sender %d's frame %d arrived where its frame %d was due", got, s, i, next[s])
		}
		next[s]++
		tr.pool.release(f.pb)
	}
	ws := settledWireStats(tr)
	if ws.BytesOut != ws.BytesIn || ws.FramesOut != ws.FramesIn || ws.FramesIn != senders*perSender {
		t.Errorf("wire stats after %d frames: %+v", senders*perSender, ws)
	}
}

// TestTCPSendBackpressureUnblocksOnClose: with nobody receiving, a link
// takes at least mailboxCap frames and at most what the inbox and the
// socket buffers hold before Send blocks — in the sender's own write —
// and Close unblocks it promptly, without waiting out the hard-close
// timer: the closing reader keeps draining the socket.
func TestTCPSendBackpressureUnblocksOnClose(t *testing.T) {
	const words = 1 << 17 // 1 MiB frames: socket buffers hold only a few
	tr, err := NewTCPLoopback(2)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]float64, words)
	var sent atomic.Int64
	returned := make(chan struct{})
	stop := make(chan struct{})
	go func() {
		defer close(returned)
		for {
			select {
			case <-stop:
				return
			default:
			}
			tr.Send(0, 1, Frame{Data: payload})
			sent.Add(1)
		}
	}()
	// Blocked is the absence of progress: wait until the count has stood
	// still for a while.
	last, since := int64(-1), time.Now()
	for time.Since(since) < 300*time.Millisecond {
		if n := sent.Load(); n != last {
			last, since = n, time.Now()
		}
		time.Sleep(10 * time.Millisecond)
	}
	if last < mailboxCap {
		t.Errorf("Send blocked after %d frames, want at least mailboxCap = %d", last, mailboxCap)
	}
	// inbox + the frame the reader holds + 32 MiB of socket buffering,
	// which is more than the kernel's limits allow.
	if limit := int64(mailboxCap + 1 + 32); last > limit {
		t.Errorf("Send still not blocked after %d 1 MiB frames, want at most %d", last, limit)
	}
	start := time.Now()
	tr.Close()
	close(stop)
	select {
	case <-returned:
	case <-time.After(4 * time.Second):
		t.Fatal("Send still blocked after Close")
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("Close and the blocked Send took %v", d)
	}
}

// TestTCPCloseRacesSends: Close arrives while two goroutines are sending
// — one inside its write, the other waiting for the link's lock.
// Whatever was handed to the socket was read by the peer, nothing was
// written after the write side closed, what was received is each
// sender's frames in its own order, and nothing panics.
func TestTCPCloseRacesSends(t *testing.T) {
	for round := 0; round < 20; round++ {
		tr, err := NewTCPLoopback(2)
		if err != nil {
			t.Fatal(err)
		}
		const senders, before = 2, 200
		var wg sync.WaitGroup
		ready := make(chan struct{}, senders)
		closed := make(chan struct{})
		for s := 0; s < senders; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				for i := 0; ; i++ {
					if i == before {
						ready <- struct{}{}
					}
					select {
					case <-closed:
						return
					default:
					}
					tr.Send(0, 1, Frame{Data: []float64{float64(s), float64(i)}})
				}
			}(s)
		}
		receiverDone := make(chan struct{})
		go func() {
			defer close(receiverDone)
			var next [senders]int
			for {
				select {
				case f := <-tr.inbox[1][0]:
					s, i := int(f.Data[0]), int(f.Data[1])
					if i < next[s] {
						t.Errorf("round %d: sender %d's frame %d arrived after its frame %d", round, s, i, next[s]-1)
					}
					next[s] = i + 1
				case <-closed:
					return
				}
			}
		}()
		for s := 0; s < senders; s++ {
			<-ready
		}
		tr.Close()
		close(closed)
		wg.Wait()
		<-receiverDone
		ws := tr.WireStats()
		if ws.FramesOut != ws.FramesIn || ws.BytesOut != ws.BytesIn {
			t.Errorf("round %d: wire stats after Close: %+v", round, ws)
		}
		if ws.FramesOut < senders*before {
			t.Errorf("round %d: %d frames written, but %d were sent before Close", round, ws.FramesOut, senders*before)
		}
		l := tr.links[0][1]
		l.mu.Lock()
		if l.w.err != nil {
			t.Errorf("round %d: the link's writer failed: %v (a write after CloseWrite?)", round, l.w.err)
		}
		l.mu.Unlock()
	}
}
