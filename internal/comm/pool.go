package comm

import (
	"math/bits"
	"sync"
)

// Payload recycling. Every copy a collective puts on the wire is drawn
// from the pool and returned to it by the consumer once the payload has
// been used, so the steady-state allocation count of the dense
// collectives is zero: after a warmup collective or two the same few
// buffers circulate forever (pinned by the AllocsPerRun tests).
//
// The pool stores *poolBuf wrappers rather than raw slices because a
// pointer stored in an interface{} does not allocate, while a slice
// header does; the wrapper travels alongside the payload inside Frame
// so the consumer can hand the exact same object back with one
// pointer-typed Put. Buffers are segregated into power-of-two size
// classes (one sync.Pool per class): every wrapper in a class has
// exactly the class's capacity, so a pool serving mixed frame sizes
// — whole-model sums, codec pair streams, one-word maxima and
// barriers — reaches zero steady-state allocations regardless of
// which goroutine happens to recycle which wrapper. A single mixed pool
// would instead keep regrowing small wrappers whenever scheduling
// shuffled them onto large requests.
//
// A bufPool is normally per-Group, but a wire transport that owns its
// own receive buffers (TCPTransport) exposes its pool for the groups
// built over it to adopt (pooledTransport): the transport's readers
// acquire, the receiving collectives release, and the serializer
// releases what the senders acquired — one circulation, no drain.
//
// sync.Pool is already safe for concurrent use, which makes the pool
// rank-safe: any learner goroutine may acquire or release from any rank.

// bufPool recycles wire payloads in power-of-two size classes.
type bufPool struct {
	classes [64]sync.Pool // *poolBuf, one pool per size class
}

// poolBuf is one recyclable wire payload; cap(data) is always exactly
// its size class's capacity.
type poolBuf struct {
	data []float64
}

// sizeClass returns the index of the smallest power-of-two class that
// holds n words.
func sizeClass(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// acquire returns a pooled buffer resliced to n words (allocating only
// when n's size class has no free wrapper — warmup).
func (p *bufPool) acquire(n int) *poolBuf {
	c := sizeClass(n)
	pb, _ := p.classes[c].Get().(*poolBuf)
	if pb == nil {
		pb = &poolBuf{data: make([]float64, 1<<c)}
	}
	pb.data = pb.data[:n]
	return pb
}

// release returns a buffer to its size class.
func (p *bufPool) release(pb *poolBuf) {
	p.classes[sizeClass(cap(pb.data))].Put(pb)
}

// acquire draws a transfer buffer from the group's (possibly
// transport-shared) pool.
func (g *Group) acquire(n int) *poolBuf { return g.pool.acquire(n) }

// pooled returns a frame carrying a pooled copy of src.
func (g *Group) pooled(src []float64) Frame {
	pb := g.acquire(len(src))
	copy(pb.data, src)
	return Frame{Data: pb.data, pb: pb}
}

// releaseMsg returns a received frame's payload to the pool. Frames
// whose payload is owned by the sender (zero-copy subslice hand-offs,
// external Send callers) carry a nil pb and are left alone.
func (g *Group) releaseMsg(m Frame) {
	if m.pb != nil {
		g.pool.release(m.pb)
	}
}
