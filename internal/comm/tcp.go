package comm

import (
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"sasgd/internal/comm/wire"
)

// TCP transport: the Transport interface over real sockets, one learner
// process (or several) per machine. The mesh is one full-duplex TCP
// connection per unordered rank pair — the lower rank dials the higher
// rank's listener and identifies the pair with a hello. A frame is
// written to its link by the goroutine that sends it, and each
// connection endpoint has a reader goroutine that routes incoming frames
// to per-(sender, receiver) inbox channels, so Recv is the same
// buffered-channel receive the channel fabric does — the collectives
// cannot tell the backends apart.
//
// Who writes. Send takes the link's lock and writes and flushes its
// frame itself: a message crosses one goroutine hand-off (the receiving
// reader's), and the rank that goes straight from a send into its next
// stretch of compute does not leave the frame waiting in its run queue
// for another processor to steal. The lock is the whole of per-link
// ordering: one sender's frames reach the socket in its send order, and
// concurrent senders interleave whole frames.
//
// What is copied where. The byte format is package wire's; on a
// little-endian host a payload's memory already is its encoding, so a
// dense frame crosses this file without an encode pass, a decode pass or
// a staging copy:
//
//   - Writer, frame of at least wireBufSize bytes: header into a fixed
//     16-byte array, one CRC pass over the payload where it lies (the
//     learner's buffer or a pooled one), then one writev of
//     {header, payload, CRC trailer}. The kernel's copy into the socket
//     buffer is the only copy.
//   - Writer, smaller frame (top-k buckets, control words, heartbeats):
//     encoded by wire.AppendFrame — one copy, one CRC — straight into
//     the 64 KiB coalescing buffer, which Send flushes before it lets
//     go of the link.
//   - Reader: the length prefix and header arrive through the 64 KiB
//     staging buffer (one read picks up a whole batch of small frames)
//     and are bounds-checked; only then is a pooled []float64 acquired.
//     What the staging buffer already holds of the payload is copied
//     out, the rest is read from the connection directly into the
//     pooled buffer's memory, and the CRC rolls over each piece while it
//     is still in cache.
//
// A big-endian host takes the same code with wire's per-word loops in
// place of the in-place steps (and a coalescing buffer that grows once
// to the largest frame); the choice is wire's, made from the platform.
//
// Validation order is bounds → CRC → fields. The length, magic and
// nwords checks need no trust in the sender and run before any buffer is
// sized from them; From/To are read only once the trailer has matched,
// because a flipped bit there would otherwise misroute a frame
// silently. (No simulated time is sent: simulation is
// all-local, sim.go.) A payload that fails its CRC has already
// been written into a pooled buffer — harmless, the buffer goes back to
// the pool undelivered and the link fails.
//
// Buffering: a write blocks only when the socket buffers are full, and
// the readers do not depend on anyone calling Recv — each drains its
// socket into an inbox of mailboxCap frames — so a sender gets at least
// mailboxCap frames ahead of its receiver before it blocks, which is the
// channel fabric's slack. Any schedule that is deadlock-free on channels
// is deadlock-free here (the mailboxCap argument, with the socket
// buffers as spare room).
//
// Sender-reuse safety for zero-copy frames: a sender may only reuse a
// handed-off buffer after an event that (on the channel fabric) follows
// the receiver consuming it. Here the rule is met with room to spare:
// Send reads the buffer in place, twice — the CRC pass, then the
// kernel's copy during writev — and both are over when it returns, so
// the payload has been read for the last time before its sender runs
// again, and the zero-copy hand-offs the collectives rely on stay safe
// over the wire. (A coalesced small frame is copied out earlier still.)
// With the buffering above, it lets the dense sum's top edge be one
// exchange (dense.go): the root sends its buffer, then folds into it.
//
// Coalescing: every frame is flushed by the Send that wrote it — its
// sender is about to wait for the answer — so the coalescing buffer
// holds one small frame at a time; it is what turns header, payload and
// trailer into one write.
//
// Teardown: Close marks the transport closing; each link's closer
// goroutine then takes the lock — behind a write in progress, with
// nothing left buffered — and half-closes, and a Send that gets the lock
// of a closing transport drops its frame instead of writing behind the
// half-close. Readers read on to the peer's EOF and discard, so a write
// blocked on a full socket completes. A link that ends under an open
// transport ends alone, with its cause (runReader).

// TCPConfig describes a TCP mesh.
type TCPConfig struct {
	// Addrs[r] is rank r's listen address. Every process of the run
	// must pass the identical list (ephemeral ":0" ports are only valid
	// for ranks local to this process, i.e. single-process loopback).
	Addrs []string
	// Local lists the ranks hosted by this process (nil = all of them).
	Local []int
	// DialTimeout bounds connection establishment per link, retrying
	// until the deadline so peer processes may start late. Default 15s.
	DialTimeout time.Duration
}

// TCPStats is the transport-level wire accounting (bytes and frames on
// the socket, this process's share only). Word-level traffic accounting
// stays in comm.Stats, charged above the transport.
type TCPStats struct {
	BytesOut, BytesIn   int64
	FramesOut, FramesIn int64
}

// TCPTransport is a Transport over a TCP mesh. Construct with
// NewTCPTransport (multi-process) or NewTCPLoopback (tests, benches,
// single-machine runs).
type TCPTransport struct {
	p     int
	local []bool
	inbox [][]chan Frame // [to][from]; rows only for local `to`
	ended [][]error      // [to][from]: why the link's reader closed its inbox
	links [][]*wireLink  // [from][to]; the wire links of local `from`
	pool  bufPool

	done      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
	conns     []net.Conn

	bytesOut, bytesIn   atomic.Int64
	framesOut, framesIn atomic.Int64
}

// wireLink is the sending half of one directed link: the socket's
// writer and the lock its senders and its closer take turns under.
type wireLink struct {
	mu sync.Mutex   // held around every use of w and the closing of its write side
	w  *flushWriter // set once the mesh is up
}

// wireBufSize is the writer's coalescing buffer and the reader's staging
// buffer. A frame at least this large is written around the one and
// read around the other.
const wireBufSize = 64 << 10

// helloMagic opens every dialed connection: magic, mesh size, dialer
// rank, target rank — enough for the accepting side to direction-assign
// the pair and reject mismatched runs.
const helloMagic = 0x68444753 // "SGDh"

const helloLen = 10

// NewTCPLoopback returns a p-rank TCP transport with every rank hosted
// in this process over 127.0.0.1 ephemeral ports: the full TCP backend
// — framing, CRC, per-link readers, kernel sockets — without leaving
// the machine. This is the cross-transport equivalence harness's second
// backend.
func NewTCPLoopback(p int) (*TCPTransport, error) {
	addrs := make([]string, p)
	for i := range addrs {
		addrs[i] = "127.0.0.1:0"
	}
	return NewTCPTransport(TCPConfig{Addrs: addrs})
}

// NewTCPTransport builds the mesh: listeners for the local ranks, then
// one connection per rank pair (lower rank dials, higher accepts, both
// with retry/deadline so processes may start in any order), then the
// per-link reader/closer goroutines. Returns only once every local
// link is connected.
func NewTCPTransport(cfg TCPConfig) (*TCPTransport, error) {
	p := len(cfg.Addrs)
	if p == 0 {
		return nil, fmt.Errorf("comm: tcp: no addresses")
	}
	if p > wire.MaxRank+1 {
		return nil, fmt.Errorf("comm: tcp: %d ranks exceed the frame format's %d", p, wire.MaxRank+1)
	}
	t := &TCPTransport{p: p, local: make([]bool, p), done: make(chan struct{})}
	if cfg.Local == nil {
		for r := range t.local {
			t.local[r] = true
		}
	} else {
		if len(cfg.Local) == 0 {
			return nil, fmt.Errorf("comm: tcp: no local ranks")
		}
		for _, r := range cfg.Local {
			if r < 0 || r >= p {
				return nil, fmt.Errorf("comm: tcp: local rank %d out of range [0,%d)", r, p)
			}
			if t.local[r] {
				return nil, fmt.Errorf("comm: tcp: duplicate local rank %d", r)
			}
			t.local[r] = true
		}
	}
	dialBudget := cfg.DialTimeout
	if dialBudget <= 0 {
		dialBudget = 15 * time.Second
	}

	t.inbox, t.ended = make([][]chan Frame, p), make([][]error, p)
	t.links = make([][]*wireLink, p)
	for r := 0; r < p; r++ {
		if t.local[r] {
			row := make([]chan Frame, p)
			for from := range row {
				row[from] = make(chan Frame, mailboxCap)
			}
			t.inbox[r], t.ended[r] = row, make([]error, p)
			lrow := make([]*wireLink, p)
			for to := range lrow {
				if to != r {
					lrow[to] = &wireLink{}
				}
			}
			t.links[r] = lrow
		}
	}

	// Listeners first, so every dial target that is local resolves its
	// actual (possibly ephemeral) port.
	listeners := make([]net.Listener, p)
	resolved := append([]string(nil), cfg.Addrs...)
	fail := func(err error) (*TCPTransport, error) {
		for _, ln := range listeners {
			if ln != nil {
				ln.Close()
			}
		}
		for _, c := range t.conns {
			c.Close()
		}
		return nil, err
	}
	for r := 0; r < p; r++ {
		if !t.local[r] {
			continue
		}
		ln, err := net.Listen("tcp", cfg.Addrs[r])
		if err != nil {
			return fail(fmt.Errorf("comm: tcp: listen rank %d on %s: %w", r, cfg.Addrs[r], err))
		}
		listeners[r] = ln
		resolved[r] = ln.Addr().String()
	}

	// Establish the mesh. Pair {a,b} with a<b: a dials b's listener, so
	// rank r's listener expects exactly one connection from every lower
	// rank. Accepts run concurrently with the dial loop — a loopback
	// mesh dials itself.
	type endpoint struct {
		conn  *net.TCPConn
		wFrom int // this endpoint writes the wFrom→wTo direction
		wTo   int
	}
	var mu sync.Mutex
	var eps []endpoint
	addEndpoint := func(c *net.TCPConn, wFrom, wTo int) {
		c.SetNoDelay(true)
		mu.Lock()
		t.conns = append(t.conns, c)
		eps = append(eps, endpoint{c, wFrom, wTo})
		mu.Unlock()
	}
	deadline := time.Now().Add(dialBudget)
	var acceptWG sync.WaitGroup
	acceptErr := make(chan error, p)
	for r := 0; r < p; r++ {
		if listeners[r] == nil || r == 0 {
			continue
		}
		acceptWG.Add(1)
		go func(r int, ln net.Listener) {
			defer acceptWG.Done()
			if d, ok := ln.(*net.TCPListener); ok {
				d.SetDeadline(deadline)
			}
			for i := 0; i < r; i++ {
				c, err := ln.Accept()
				if err != nil {
					acceptErr <- fmt.Errorf("comm: tcp: rank %d accept %d/%d: %w", r, i, r, err)
					return
				}
				var hello [helloLen]byte
				c.SetReadDeadline(deadline)
				if _, err := io.ReadFull(c, hello[:]); err != nil {
					acceptErr <- fmt.Errorf("comm: tcp: rank %d hello: %w", r, err)
					c.Close()
					return
				}
				c.SetReadDeadline(time.Time{})
				magic := uint32(hello[0]) | uint32(hello[1])<<8 | uint32(hello[2])<<16 | uint32(hello[3])<<24
				hp := int(hello[4]) | int(hello[5])<<8
				da := int(hello[6]) | int(hello[7])<<8
				db := int(hello[8]) | int(hello[9])<<8
				if magic != helloMagic || hp != p || db != r || da >= r || da < 0 {
					acceptErr <- fmt.Errorf("comm: tcp: rank %d got bad hello (magic %#x p %d pair %d→%d)", r, magic, hp, da, db)
					c.Close()
					return
				}
				addEndpoint(c.(*net.TCPConn), r, da)
			}
		}(r, listeners[r])
	}
	var dialErr error
	for b := 1; b < p && dialErr == nil; b++ {
		for a := 0; a < b; a++ {
			if !t.local[a] {
				continue
			}
			addr := resolved[b]
			if !t.local[b] {
				if _, port, err := net.SplitHostPort(addr); err != nil || port == "0" {
					dialErr = fmt.Errorf("comm: tcp: rank %d address %q needs an explicit port (ephemeral ports are single-process only)", b, cfg.Addrs[b])
					break
				}
			}
			c, err := dialRetry(addr, deadline)
			if err != nil {
				dialErr = fmt.Errorf("comm: tcp: rank %d dial rank %d (%s): %w", a, b, addr, err)
				break
			}
			hm := uint32(helloMagic)
			hello := [helloLen]byte{
				byte(hm), byte(hm >> 8), byte(hm >> 16), byte(hm >> 24),
				byte(p), byte(p >> 8),
				byte(a), byte(a >> 8),
				byte(b), byte(b >> 8),
			}
			if _, err := c.Write(hello[:]); err != nil {
				dialErr = fmt.Errorf("comm: tcp: rank %d hello to rank %d: %w", a, b, err)
				c.Close()
				break
			}
			addEndpoint(c, a, b)
		}
	}
	acceptWG.Wait()
	for _, ln := range listeners {
		if ln != nil {
			ln.Close()
		}
	}
	if dialErr != nil {
		return fail(dialErr)
	}
	select {
	case err := <-acceptErr:
		return fail(err)
	default:
	}

	// Mesh complete: spawn the link goroutines. Each endpoint writes
	// one direction and reads the other.
	for _, ep := range eps {
		l := t.links[ep.wFrom][ep.wTo]
		l.w = newFlushWriter(ep.conn, &t.bytesOut, &t.framesOut)
		t.wg.Add(1)
		go t.runCloser(l, ep.conn)
		if t.local[ep.wFrom] { // reads frames addressed wTo→wFrom
			t.wg.Add(1)
			go t.runReader(ep.conn, ep.wTo, ep.wFrom)
		}
	}
	return t, nil
}

// dialRetry dials until success or the deadline; peers of a
// multi-process run may not be listening yet.
func dialRetry(addr string, deadline time.Time) (*net.TCPConn, error) {
	var lastErr error
	for {
		remain := time.Until(deadline)
		if remain <= 0 {
			if lastErr == nil {
				lastErr = fmt.Errorf("deadline exceeded")
			}
			return nil, lastErr
		}
		step := 250 * time.Millisecond
		if remain < step {
			step = remain
		}
		c, err := net.DialTimeout("tcp", addr, step)
		if err == nil {
			return c.(*net.TCPConn), nil
		}
		lastErr = err
		time.Sleep(50 * time.Millisecond)
	}
}

// Size returns the mesh's rank count.
func (t *TCPTransport) Size() int { return t.p }

// Local reports whether rank r is hosted by this process.
func (t *TCPTransport) Local(r int) bool { return t.local[r] }

func (t *TCPTransport) bufferPool() *bufPool { return &t.pool }

// WireStats snapshots the socket-level byte/frame counters.
func (t *TCPTransport) WireStats() TCPStats {
	return TCPStats{
		BytesOut: t.bytesOut.Load(), BytesIn: t.bytesIn.Load(),
		FramesOut: t.framesOut.Load(), FramesIn: t.framesIn.Load(),
	}
}

// Send writes f to the (from → to) link (self-sends go straight to the
// inbox) and flushes it; f.Data has been read for the last time, and a
// pool-owned payload released, when Send returns. Blocks for
// backpressure — on a full socket, or behind another sender's write —
// and drops the frame once the transport is closing.
func (t *TCPTransport) Send(from, to int, f Frame) {
	if !t.local[from] {
		panic(fmt.Sprintf("comm: tcp: send from rank %d, which is not hosted by this process", from))
	}
	checkTransportRank(t, to)
	if from == to {
		select {
		case t.inbox[to][from] <- f:
		case <-t.done:
		}
		return
	}
	l := t.links[from][to]
	l.mu.Lock()
	// Checked under the lock: the closer half-closes under it too, so a
	// frame is never written behind CloseWrite.
	if !t.closing() {
		l.w.frame(wire.Header{From: from, To: to}, f.Data)
		l.w.flush()
	}
	l.mu.Unlock()
	if f.pb != nil {
		t.pool.release(f.pb)
	}
}

// Recv returns the next frame on the (from → to) link. It panics with
// an ended link's linkError once drained, and with ErrClosed on Close.
func (t *TCPTransport) Recv(to, from int) Frame {
	if !t.local[to] {
		panic(fmt.Sprintf("comm: tcp: recv at rank %d, which is not hosted by this process", to))
	}
	checkTransportRank(t, from)
	err := ErrClosed
	select {
	case f, ok := <-t.inbox[to][from]:
		if ok {
			return f
		}
		err = t.ended[to][from]
	case <-t.done:
	}
	panic(err)
}

// linkError is an ended link's panic value: ErrClosed, link and cause.
type linkError struct {
	link string // "comm: tcp link 1→0"
	err  error
}

func (e *linkError) Error() string   { return e.link + ": " + e.err.Error() }
func (e *linkError) Unwrap() []error { return []error{ErrClosed, e.err} }

// runCloser waits for Close and then half-closes the link's write side,
// behind whatever a Send is still writing, so the peer reads everything
// in flight before seeing EOF — graceful teardown.
func (t *TCPTransport) runCloser(l *wireLink, conn *net.TCPConn) {
	defer t.wg.Done()
	<-t.done
	l.mu.Lock() // every Send flushes before it unlocks: nothing is buffered
	conn.CloseWrite()
	l.mu.Unlock()
}

// flushWriter puts frames on a connection with a sticky error: after
// the peer drops the connection, writes become cheap no-ops instead of
// panics (the run is torn down by whoever noticed first). It adds to
// the transport's counters what a successful write has handed to the
// socket, never what is merely buffered.
type flushWriter struct {
	conn net.Conn
	err  error

	buf  []byte // coalesced small frames awaiting flush
	held int64  // frames in buf

	bytesOut, framesOut *atomic.Int64

	// One large frame written in place. (*net.Buffers).WriteTo consumes
	// its receiver, so bufs is rebuilt over vec for every frame.
	hdr     [wire.HeaderLen]byte
	trailer [wire.TrailerLen]byte
	vec     [3][]byte
	bufs    net.Buffers
}

func newFlushWriter(c net.Conn, bytesOut, framesOut *atomic.Int64) *flushWriter {
	return &flushWriter{conn: c, buf: make([]byte, 0, wireBufSize), bytesOut: bytesOut, framesOut: framesOut}
}

// frame writes one frame. When frame returns, data has been read for the
// last time: a small frame is encoded into buf, a frame of wireBufSize
// bytes or more goes out in one vectored write from data's own memory,
// behind anything buffered.
func (w *flushWriter) frame(h wire.Header, data []float64) {
	n := wire.FrameLen(len(data))
	if len(w.buf)+n > wireBufSize {
		w.flush()
	}
	if w.err != nil {
		return
	}
	view, inPlace := wire.PayloadBytes(data)
	if !inPlace || n < wireBufSize {
		w.buf = wire.AppendFrame(w.buf, h, data)
		w.held++
		if len(w.buf) >= wireBufSize { // big-endian host: a large frame took the portable path
			w.flush()
		}
		return
	}
	wire.PutHeader(&w.hdr, h, len(data))
	wire.PutTrailer(&w.trailer, wire.UpdateCRC(wire.UpdateCRC(0, w.hdr[wire.PrefixLen:]), view))
	w.vec = [3][]byte{w.hdr[:], view, w.trailer[:]}
	w.bufs = w.vec[:]
	_, w.err = w.bufs.WriteTo(w.conn)
	if w.err == nil {
		w.bytesOut.Add(int64(n))
		w.framesOut.Add(1)
	}
}

func (w *flushWriter) flush() {
	if w.err != nil || len(w.buf) == 0 {
		return
	}
	if _, w.err = w.conn.Write(w.buf); w.err == nil {
		w.bytesOut.Add(int64(len(w.buf)))
		w.framesOut.Add(w.held)
	}
	w.buf, w.held = w.buf[:0], 0
}

// runReader routes the (from → to) frames of one connection to the
// inbox. Whatever stops it under an open transport — the peer's EOF, a
// reset, a corrupt or misrouted frame — becomes the link's cause, and the
// reader (the inbox's only sender) closes the inbox: Recv on this link
// unwinds with it, other links carry on. Once the transport is closing,
// Recv unwinds with ErrClosed, frames are discarded, and the reader reads
// on to the peer's EOF: a write blocked on this socket — a Send's inline
// write included — then completes, and the peer's teardown half-closes.
func (t *TCPTransport) runReader(conn *net.TCPConn, from, to int) {
	defer t.wg.Done()
	rd := wire.NewReader(newFillReader(conn))
	for {
		f, err := t.readFrame(rd, from, to)
		if err != nil {
			if !t.closing() {
				t.ended[to][from] = &linkError{fmt.Sprintf("comm: tcp link %d→%d", from, to), err}
				close(t.inbox[to][from])
			}
			return
		}
		select {
		case t.inbox[to][from] <- f:
		case <-t.done:
			t.pool.release(f.pb)
		}
	}
}

// readFrame reads the next frame of the (from → to) link into a pooled
// buffer, which is acquired only after the header's bounds have been
// checked and goes back to the pool on any failure. It returns a bare
// io.EOF when the stream ends at a frame boundary.
func (t *TCPTransport) readFrame(rd *wire.Reader, from, to int) (Frame, error) {
	w, err := rd.Next()
	if err == io.EOF {
		return Frame{}, err
	} else if err != nil {
		return Frame{}, fmt.Errorf("read header: %w", err)
	}
	pb := t.pool.acquire(w)
	h, err := rd.Payload(pb.data)
	if err != nil {
		t.pool.release(pb)
		return Frame{}, fmt.Errorf("read payload: %w", err)
	}
	if h.From != from || h.To != to {
		t.pool.release(pb)
		return Frame{}, fmt.Errorf("misrouted frame addressed %d→%d", h.From, h.To)
	}
	t.bytesIn.Add(int64(wire.FrameLen(w)))
	t.framesIn.Add(1)
	return Frame{Data: pb.data, pb: pb}, nil
}

func (t *TCPTransport) closing() bool {
	select {
	case <-t.done:
		return true
	default:
		return false
	}
}

// fillReader is a minimal buffered reader (io.Reader) sized for batches
// of small frames. A read at least as large as its buffer, arriving when
// the buffer is empty, goes from the connection straight into the
// caller's memory — wire.Reader asks for a large payload in such reads.
type fillReader struct {
	conn net.Conn
	buf  []byte
	r, w int
}

func newFillReader(c net.Conn) *fillReader {
	return &fillReader{conn: c, buf: make([]byte, wireBufSize)}
}

func (fr *fillReader) Read(p []byte) (int, error) {
	if fr.r == fr.w {
		if len(p) >= len(fr.buf) {
			return fr.conn.Read(p)
		}
		n, err := fr.conn.Read(fr.buf)
		if n == 0 {
			return 0, err
		}
		fr.r, fr.w = 0, n
	}
	n := copy(p, fr.buf[fr.r:fr.w])
	fr.r += n
	return n, nil
}

// Close tears the mesh down: the links half-close behind any write in
// progress so peers receive everything in flight, readers drain or
// exit, then the connections close. Idempotent and safe to call
// concurrently with blocked Sends (they unblock and drop).
func (t *TCPTransport) Close() error {
	t.closeOnce.Do(func() {
		close(t.done)
		finished := make(chan struct{})
		go func() {
			t.wg.Wait()
			close(finished)
		}()
		select {
		case <-finished:
		case <-time.After(5 * time.Second):
			// A peer process died without closing: hard-close below
			// unblocks whatever is left.
		}
		for _, c := range t.conns {
			c.Close()
		}
	})
	return nil
}
