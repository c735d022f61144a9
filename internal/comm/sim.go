package comm

import "sync"

// simTransport is simulated time as a Transport decorator over an
// all-local transport: the clocks, the cost model and each directed
// link's drain time, in transport-rank space. Nothing above it carries
// time — no frame field, no header bytes, no stamp in the engines.
//
// Send departs at the sender's clock, or once the link has drained its
// previous transfer if later (transfers on one link serialize), arrives
// XferTime later, and queues that arrival on the link's stamp FIFO;
// links deliver in order, so the n-th stamp is the n-th frame's. Recv
// pops it and syncs the receiver. Every schedule in this package sends
// only after receiving what it folds in, so the clock at a send is when
// its data became ready.
//
// A rank's clock is its own (the one the learner charges compute to)
// except inside an operation: beginOp opens a clock of the operation's
// own at its entry stamp — a Runner's launch runs so while the learner
// computes on — and endOp returns where it finished. A rank's clocks are
// touched only by the goroutine driving the rank. A link's lock covers
// its drain time, the stamp and the frame's hand-off together, so
// concurrent senders on one link queue stamps in frame order.
type simTransport struct {
	Transport
	p      int
	cost   CostModel
	clocks []Clock   // rank → its own clock
	op     []float64 // rank → its operation's clock, while inOp
	inOp   []bool
	links  []simLink // [from*p+to]
}

// simLink is one directed link. mu is held across the decorated Send,
// which may block on a full link; the receiver takes only qmu, so it
// drains the link meanwhile.
type simLink struct {
	mu       sync.Mutex
	linkFree float64 // when the link drains its last accepted transfer
	qmu      sync.Mutex
	stamps   []float64 // arrivals of the frames in flight, in send order
}

// newSimTransport decorates tr; clocks[v] belongs to transport rank
// phys[v] (nil phys = identity). A nil cost makes transfers free.
func newSimTransport(tr Transport, phys []int, clocks []Clock, cost CostModel) *simTransport {
	if !isAllLocal(tr) {
		panic("comm: simulated clocks require an all-local transport")
	}
	if cost == nil {
		cost = FreeCost{}
	}
	p := tr.Size()
	s := &simTransport{Transport: tr, p: p, cost: cost, clocks: make([]Clock, p),
		op: make([]float64, p), inOp: make([]bool, p), links: make([]simLink, p*p)}
	for v, c := range clocks {
		s.clocks[rankIn(phys, v)] = c
	}
	return s
}

// now is rank r's current clock: its operation's, else its own.
func (s *simTransport) now(r int) float64 {
	if s.inOp[r] {
		return s.op[r]
	}
	return s.clocks[r].Now()
}

// Send stamps the frame's arrival on its link and hands it on.
func (s *simTransport) Send(from, to int, f Frame) {
	l := &s.links[from*s.p+to]
	l.mu.Lock()
	defer l.mu.Unlock()
	l.linkFree = max(s.now(from), l.linkFree) + s.cost.XferTime(from, to, len(f.Data))
	l.qmu.Lock()
	l.stamps = append(l.stamps, l.linkFree)
	l.qmu.Unlock()
	s.Transport.Send(from, to, f)
}

// Recv syncs the receiver to the frame's arrival.
func (s *simTransport) Recv(to, from int) Frame {
	f := s.Transport.Recv(to, from)
	l := &s.links[from*s.p+to]
	l.qmu.Lock()
	t := l.stamps[0]
	l.stamps = l.stamps[:copy(l.stamps, l.stamps[1:])]
	l.qmu.Unlock()
	if s.inOp[to] {
		s.op[to] = max(s.op[to], t)
	} else {
		s.clocks[to].Sync(t)
	}
	return f
}

// align is the barrier's clock alignment: every party leaves at the
// latest clock any of them brought.
func (s *simTransport) align(r int, bar *Barrier) {
	s.clocks[r].Sync(bar.WaitMax(s.clocks[r].Now()))
}

// beginOp opens rank's operation clock at entry. It reports false, and
// changes nothing, unsimulated or inside an operation (a codec run by a
// Runner's launch carries on the launch's clock).
func (g *Group) beginOp(rank int, entry float64) bool {
	s, r := g.sim, g.trRank(rank)
	if s == nil || s.inOp[r] {
		return false
	}
	s.op[r], s.inOp[r] = entry, true
	return true
}

// endOp closes rank's operation and returns its clock: the entry joined
// with every arrival the operation received.
func (g *Group) endOp(rank int) float64 {
	r := g.trRank(rank)
	g.sim.inOp[r] = false
	return g.sim.op[r]
}

// syncOwn advances rank's own clock to t.
func (g *Group) syncOwn(rank int, t float64) {
	if g.sim != nil {
		g.sim.clocks[g.trRank(rank)].Sync(t)
	}
}

// closeOp ends an operation beginOp opened (opened is its result) and
// syncs the rank's own clock to it, as if the rank had run it in line.
func (g *Group) closeOp(rank int, opened bool) {
	if opened {
		g.syncOwn(rank, g.endOp(rank))
	}
}
