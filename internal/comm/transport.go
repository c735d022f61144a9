package comm

import (
	"errors"
	"fmt"
	"sync"
)

// ErrClosed is (or is wrapped by) the panic value of a Recv or Barrier
// wait cut short by Close or by the end of its wire link: a run torn
// down under its learners unwinds the peers parked in its collectives
// instead of leaving them blocked for good.
var ErrClosed = errors.New("comm: transport closed")

// Frame is one point-to-point transfer between learners — the unit a
// Transport moves: the payload alone. It carries no time (sim.go keeps
// arrivals beside it) and no sequence number (links are reliable FIFO,
// and no fault plan touches a message). pb is non-nil when the
// payload is owned by the buffer pool, in which case the consumer must
// release it after reading the data — the receiving collective on a
// local backend, the serializer on a wire backend (which ships the bytes
// and recycles the buffer).
type Frame struct {
	Data []float64
	pb   *poolBuf
}

// Transport is the wire fabric a Group is built over: reliable,
// per-directed-link FIFO delivery of frames between p ranks. Send
// enqueues a frame on the (from → to) link and may block for
// backpressure; every link must buffer at least mailboxCap frames, the
// budget the collectives' deadlock-freedom argument is sized against
// (see mailboxCap). Recv blocks until the next frame on the (from → to)
// link is available. Frames on one directed link arrive in send order;
// frames on different links may interleave arbitrarily.
//
// Everything above the transport is rank-space logic: the Group charges
// traffic statistics *before* handing a frame to Send, so Stats
// accounting holds identically on every backend — the cross-transport
// equivalence suite pins this. Simulated time is a
// decorator over an all-local Transport (sim.go).
type Transport interface {
	// Size returns the number of ranks the transport connects.
	Size() int
	// Send delivers f on the directed (from → to) link, blocking while
	// the link's buffer is full. The payload is handed off: the sender
	// must not reuse f.Data until the consumer is done with it, and
	// pool-owned frames are released by the consumer.
	Send(from, to int, f Frame)
	// Recv returns the next frame on the (from → to) link, blocking until
	// one is available; a closed fabric or ended link panics (ErrClosed).
	Recv(to, from int) Frame
	// Local reports whether rank r is driven by this process: only a
	// local rank may send or receive. An in-process fabric hosts every
	// rank, a partial mesh only its own.
	Local(r int) bool
	// Close tears the fabric down. It must be idempotent and safe to
	// call concurrently with blocked Sends (which unblock and drop, per
	// the Group.Close contract that in-flight transfers are lost).
	Close() error
}

// isAllLocal reports whether this process drives every rank of tr.
// Groups then pick the in-process barrier (which also aligns simulated
// clocks) over the wire barrier.
func isAllLocal(tr Transport) bool {
	for r := 0; r < tr.Size(); r++ {
		if !tr.Local(r) {
			return false
		}
	}
	return true
}

// pooledTransport is implemented by transports that own a payload pool
// the groups built over them should share, so wire receive buffers
// recycle through the same size-classed pools the collectives draw
// from — without sharing, every remote receive would allocate (the
// transport's pool would drain while the group's pool filled).
type pooledTransport interface{ bufferPool() *bufPool }

// chanTransport is the default in-process backend: a matrix of buffered
// per-(sender, receiver) Go channels, giving MPI-like ordered
// point-to-point semantics with no serialization — all p ranks live in
// one process.
type chanTransport struct {
	p         int
	mail      [][]chan Frame // mail[to][from]
	done      chan struct{}  // closed by Close; unblocks senders parked on a full mailbox
	closeOnce sync.Once
}

func newChanTransport(p int) *chanTransport {
	t := &chanTransport{p: p, done: make(chan struct{})}
	t.mail = make([][]chan Frame, p)
	for to := range t.mail {
		t.mail[to] = make([]chan Frame, p)
		for from := range t.mail[to] {
			t.mail[to][from] = make(chan Frame, mailboxCap)
		}
	}
	return t
}

func (t *chanTransport) Size() int      { return t.p }
func (t *chanTransport) Local(int) bool { return true }

func (t *chanTransport) Send(from, to int, f Frame) {
	select {
	case t.mail[to][from] <- f:
	case <-t.done:
		// Closing: the transfer is dropped, matching the documented
		// contract that frames in flight at Close are lost.
	}
}

func (t *chanTransport) Recv(to, from int) Frame {
	select {
	case f := <-t.mail[to][from]:
		return f
	case <-t.done:
		panic(ErrClosed)
	}
}

// Close unblocks any sender parked on a full mailbox and any receiver
// parked on an empty one. Idempotent and safe under concurrent calls.
func (t *chanTransport) Close() error {
	t.closeOnce.Do(func() { close(t.done) })
	return nil
}

// checkTransportRank panics when a transport rank is out of range.
func checkTransportRank(tr Transport, r int) {
	if r < 0 || r >= tr.Size() {
		panic(fmt.Sprintf("comm: transport rank %d out of range [0,%d)", r, tr.Size()))
	}
}
