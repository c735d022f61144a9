package comm

import (
	"fmt"
	"math"
	"net"
	"reflect"
	"runtime/debug"
	"slices"
	"sync"
	"testing"
	"time"

	"sasgd/internal/comm/wire"
	"sasgd/internal/obs"
	"sasgd/internal/parallel"
)

// transportCase builds one of the two backends under test for a p-rank
// all-local group. The TCP variant routes every frame through real
// loopback sockets and the wire codec; the channel variant is the
// in-process fabric the rest of the suite exercises.
type transportCase struct {
	name string
	make func(t *testing.T, p int) *Group
}

func transportCases() []transportCase {
	return []transportCase{{"channel", chanGroup}, {"tcp-loopback", tcpLoopbackGroup}}
}

func chanGroup(t *testing.T, p int) *Group { return NewGroup(p) }

func tcpLoopbackGroup(t *testing.T, p int) *Group {
	t.Helper()
	tr, err := NewTCPLoopback(p)
	if err != nil {
		t.Fatalf("NewTCPLoopback(%d): %v", p, err)
	}
	g := NewTransportGroup(tr, nil, nil, nil)
	t.Cleanup(g.Close)
	return g
}

// TestCrossTransportAllreduceEquivalence is the equivalence matrix of
// the transport cut: every reduction the tree walk carries — the dense
// tree allreduce, top-k's pair merge and qint8's max and integer sum —
// over group sizes including non-powers of two, must produce
// bitwise-identical buffers (residuals included) AND identical traffic
// stats on the channel fabric and on TCP loopback. Float64 words survive
// the wire codec bit-exactly and the collectives never branch on the
// backend, so equality here is exact — any drift means the transport
// leaked into algorithm behavior.
//
// Equal means equal bits: the operands carry ±0, denormals, ±Inf and NaN
// (spikeSpecials), where == would call +0 and −0 the same and fail every
// NaN. The two long messages are above reduceGrain, so the dense folds
// run sharded (the budget is raised for the test, so they do on a
// one-core host too). A wire transport never hands a partial over by
// reference, so on those messages channel ≡ TCP is also the
// by-reference engine against the pooled one. qint8's operands stay
// finite: a non-finite maximum zeroes the bucket before any integer
// moves.
func TestCrossTransportAllreduceEquivalence(t *testing.T) {
	defer parallel.SetWorkers(parallel.SetWorkers(4))
	type runFn = func(rank int, buf, res []float64)
	codec := func(name string, ratio float64) func(*Group, int) runFn {
		return func(g *Group, p int) runFn {
			cs := make([]Compressor, p)
			for r := range cs {
				cs[r] = NewCompressor(name)
			}
			return func(r int, buf, res []float64) { cs[r].Allreduce(g, r, buf, res, ratio, 0, nil, 0) }
		}
	}
	ops := []struct {
		name     string
		specials bool
		run      func(g *Group, p int) runFn
	}{
		{"tree", true, func(g *Group, _ int) runFn {
			return func(r int, buf, _ []float64) { g.AllreduceTree(r, buf) }
		}},
		{"topk", true, codec("topk", 0.1)},
		{"qint8", false, codec("qint8", 0)},
	}
	for _, op := range ops {
		for _, p := range []int{1, 2, 3, 5, 8} {
			for _, m := range []int{1, 23, 129, 2*reduceGrain + 3, 276971} {
				orig, _ := makeBufs(p, m, int64(7000*p+m))
				if op.specials {
					spikeSpecials(orig)
				}
				var refBufs, refRes [][]float64
				var refStats Stats
				for _, tc := range transportCases() {
					bufs := cloneBufs(orig)
					res := make([][]float64, p)
					for r := range res {
						res[r] = make([]float64, m)
						for i := range res[r] {
							res[r][i] = float64((r+i)%7) * 1e-3
						}
					}
					g := tc.make(t, p)
					run := op.run(g, p)
					runGroup(p, g, func(rank int) {
						run(rank, bufs[rank], res[rank])
						g.Barrier(rank)
					})
					st := g.Stats()
					if refBufs == nil {
						refBufs, refRes, refStats = bufs, res, st
						continue
					}
					for r := 0; r < p; r++ {
						for i := range bufs[r] {
							if got, want := math.Float64bits(bufs[r][i]), math.Float64bits(refBufs[r][i]); got != want {
								t.Fatalf("%s p=%d m=%d rank=%d[%d]: %s %#x != channel %#x (must be bitwise)",
									op.name, p, m, r, i, tc.name, got, want)
							}
							if got, want := math.Float64bits(res[r][i]), math.Float64bits(refRes[r][i]); got != want {
								t.Fatalf("%s p=%d m=%d rank=%d residual[%d]: %s %#x != channel %#x (must be bitwise)",
									op.name, p, m, r, i, tc.name, got, want)
							}
						}
					}
					if !reflect.DeepEqual(st, refStats) {
						t.Fatalf("%s p=%d m=%d: %s stats %+v != channel stats %+v",
							op.name, p, m, tc.name, st, refStats)
					}
				}
			}
		}
	}
}

// linkCost prices a transfer by its link and size, so every stamp a
// collective's schedule produces is distinct and a misrouted or misordered
// one shows in the final clocks.
type linkCost struct{}

func (linkCost) XferTime(from, to, words int) float64 {
	return 0.25*float64(1+from+2*to) + float64(words)/1024
}
func (linkCost) ServerOpTime(int, int, int) float64 { return 0 }

// TestCrossTransportSimulatedClocks: simulated time is a decorator over
// the transport, so the same collectives give the same final clocks,
// bitwise, over the channel fabric and over TCP loopback — the wire
// carries no time. Ranks start skewed; a Runner's launch (top-k per
// bucket, on the launch's one clock) and the two codecs open their
// clocks at entry stamps before the ranks' own clocks.
func TestCrossTransportSimulatedClocks(t *testing.T) {
	const m = 53
	kinds := []struct {
		name string
		run  func(g *Group, p int) func(rank int, buf []float64)
	}{
		{"tree", func(g *Group, p int) func(int, []float64) {
			return func(r int, b []float64) { g.AllreduceTree(r, b) }
		}},
		{"runner", func(g *Group, p int) func(int, []float64) {
			rs := make([]*Runner, p)
			for r := range rs {
				comp, res := NewCompressor("topk"), make([]float64, m)
				rs[r] = NewRunner(g, r, func(b []float64, ready float64, tk *obs.Track) {
					for _, s := range []span{{40, 13}, {20, 20}, {0, 20}} {
						comp.Allreduce(g, r, b[s.off:s.off+s.n], res[s.off:s.off+s.n], 0.25, ready, tk, 0)
					}
				})
			}
			return func(r int, b []float64) {
				rs[r].Launch(b, 1)
				rs[r].Wait()
				rs[r].Close()
			}
		}},
		{"topk", func(g *Group, p int) func(int, []float64) {
			return func(r int, b []float64) {
				NewCompressor("topk").Allreduce(g, r, b, make([]float64, m), 0.25, 1.5, nil, 0)
			}
		}},
		{"qint8", func(g *Group, p int) func(int, []float64) {
			return func(r int, b []float64) {
				NewCompressor("qint8").Allreduce(g, r, b, make([]float64, m), 0, 1.5, nil, 0)
			}
		}},
		{"hier", func(g *Group, p int) func(int, []float64) {
			h := NewHier(g, 2)
			return func(r int, b []float64) {
				h.AllreduceIntra(r, b)
				h.AllreduceInter(r, b)
			}
		}},
	}
	for _, p := range []int{2, 3, 5} {
		for _, k := range kinds {
			orig, _ := makeBufs(p, m, int64(100*p+m))
			var ref []float64
			for _, tc := range []struct {
				name string
				tr   func() Transport
			}{
				{"channel", func() Transport { return newChanTransport(p) }},
				{"tcp-loopback", func() Transport {
					tr, err := NewTCPLoopback(p)
					if err != nil {
						t.Fatalf("NewTCPLoopback(%d): %v", p, err)
					}
					return tr
				}},
			} {
				clocks := make([]Clock, p)
				for r := range clocks {
					clocks[r] = &simpleClock{now: 3.5 * float64(r)}
				}
				g := NewTransportGroup(tc.tr(), nil, clocks, linkCost{})
				run := k.run(g, p)
				bufs := cloneBufs(orig)
				runGroup(p, g, func(r int) { run(r, bufs[r]) })
				g.Close()
				got := make([]float64, p)
				for r, c := range clocks {
					got[r] = c.Now()
				}
				if ref == nil {
					ref = got
					continue
				}
				for r := range got {
					if math.Float64bits(got[r]) != math.Float64bits(ref[r]) {
						t.Fatalf("p=%d %s: %s rank %d clock %v != channel %v (must be bitwise)\n%s %v\nchannel %v",
							p, k.name, tc.name, r, got[r], ref[r], tc.name, got, ref)
					}
				}
			}
			moved := false
			for r, c := range ref {
				moved = moved || c > 3.5*float64(r)
			}
			if !moved {
				t.Fatalf("p=%d %s: no clock moved past its start: %v", p, k.name, ref)
			}
		}
	}
}

// spikeSpecials overwrites a sparse lattice of every buffer's entries
// with the values on which == and equal bits disagree or IEEE addition
// is special: ±0, denormals, ±Inf, NaN. Three patterns: one position
// holds the same special on every rank (sums of −0 stay −0, of
// denormals stay denormal), one a different special per rank (+Inf
// meets −Inf, NaN meets a number), and one a rank's own special amid
// the others' normal values.
func spikeSpecials(bufs [][]float64) {
	specials := []float64{math.Copysign(0, -1), 0, math.SmallestNonzeroFloat64,
		-3 * math.SmallestNonzeroFloat64, math.Inf(1), math.Inf(-1), math.NaN()}
	for r, b := range bufs {
		for i := range b {
			switch k := i / 37; i % 37 {
			case 5:
				b[i] = specials[k%len(specials)]
			case 30:
				b[i] = specials[(k+r)%len(specials)]
			case (11 + r) % 37:
				b[i] = specials[(k+r+3)%len(specials)]
			}
		}
	}
}

// TestCrossTransportReliableDelivery drives point-to-point sends round
// a ring over both backends: every payload arrives in order, and the
// words and messages charged are the same on each.
func TestCrossTransportReliableDelivery(t *testing.T) {
	const p, rounds = 3, 20
	var ref *Stats
	for _, tc := range transportCases() {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.make(t, p)
			runGroup(p, g, func(rank int) {
				next := (rank + 1) % p
				prev := (rank + p - 1) % p
				for i := 0; i < rounds; i++ {
					g.Send(rank, next, []float64{float64(rank*1000 + i)})
					got := g.Recv(rank, prev)
					if want := float64(prev*1000 + i); len(got) != 1 || got[0] != want {
						t.Errorf("%s rank %d round %d: got %v, want [%g]", tc.name, rank, i, got, want)
					}
				}
			})
			st := g.Stats()
			if st.Words != p*rounds || st.Messages != p*rounds {
				t.Errorf("%s: %d words in %d messages, want %d of each", tc.name, st.Words, st.Messages, p*rounds)
			}
			if ref == nil {
				ref = &st
			} else if st.Words != ref.Words || st.Messages != ref.Messages {
				t.Errorf("%s: %d words, %d messages; the first backend had %d words, %d messages",
					tc.name, st.Words, st.Messages, ref.Words, ref.Messages)
			}
		})
	}
}

// TestGroupCloseIdempotent: Close must tolerate being called repeatedly
// and from many goroutines at once — re-formed survivor views sharing a
// transport each close their group, and the training loop closes again
// on the way out.
func TestGroupCloseIdempotent(t *testing.T) {
	for _, tc := range transportCases() {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.make(t, 3)
			var wg sync.WaitGroup
			for i := 0; i < 8; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for j := 0; j < 4; j++ {
						g.Close()
					}
				}()
			}
			wg.Wait()
			g.Close() // and once more after the storm
		})
	}
}

// TestGroupCloseUnblocksPendingSends: senders parked on a full mailbox
// must all return once Close runs instead of leaking blocked goroutines.
func TestGroupCloseUnblocksPendingSends(t *testing.T) {
	t.Run("plain", func(t *testing.T) {
		g := NewGroup(2)
		const senders = 4
		done := make(chan struct{}, senders)
		for s := 0; s < senders; s++ {
			go func() {
				for i := 0; i < mailboxCap+8; i++ {
					g.Send(0, 1, []float64{float64(i)})
				}
				done <- struct{}{}
			}()
		}
		time.Sleep(20 * time.Millisecond) // let senders hit the wall
		g.Close()
		for s := 0; s < senders; s++ {
			select {
			case <-done:
			case <-time.After(5 * time.Second):
				t.Fatal("sender still blocked after Close")
			}
		}
	})
}

// TestTCPTransportGracefulTeardown: all queued frames drain to their
// receivers before the sockets close, Close is idempotent, and the
// socket counters agree end to end (every frame written was read).
func TestTCPTransportGracefulTeardown(t *testing.T) {
	const p, frames = 3, 10
	tr, err := NewTCPLoopback(p)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for from := 0; from < p; from++ {
		for to := 0; to < p; to++ {
			if from == to {
				continue
			}
			wg.Add(2)
			go func(from, to int) {
				defer wg.Done()
				for i := 0; i < frames; i++ {
					tr.Send(from, to, Frame{Data: []float64{float64(i)}})
				}
			}(from, to)
			go func(from, to int) {
				defer wg.Done()
				for i := 0; i < frames; i++ {
					f := tr.Recv(to, from)
					if len(f.Data) != 1 || f.Data[0] != float64(i) {
						t.Errorf("link %d→%d frame %d: got %+v", from, to, i, f)
					}
				}
			}(from, to)
		}
	}
	wg.Wait()
	if err := tr.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := tr.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	ws := tr.WireStats()
	wantFrames := int64(p * (p - 1) * frames)
	if ws.FramesOut != wantFrames || ws.FramesIn != wantFrames {
		t.Errorf("wire frames out=%d in=%d, want %d each", ws.FramesOut, ws.FramesIn, wantFrames)
	}
	if ws.BytesOut != ws.BytesIn {
		t.Errorf("wire bytes out=%d != in=%d", ws.BytesOut, ws.BytesIn)
	}
}

// TestTCPMultiProcessMesh stands up the genuinely distributed shape —
// two transports in separate "processes" (here: separate mesh
// endpoints, each local to one rank) bridged by a real listener on a
// pre-claimed port — and checks the wire barrier plus a cross-process
// allreduce against the channel fabric.
func TestTCPMultiProcessMesh(t *testing.T) {
	port := freePort(t)
	addrs := []string{"127.0.0.1:0", fmt.Sprintf("127.0.0.1:%d", port)}

	var trs [2]*TCPTransport
	var errs [2]error
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			trs[r], errs[r] = NewTCPTransport(TCPConfig{Addrs: addrs, Local: []int{r}})
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("endpoint %d: %v", r, err)
		}
	}

	orig, _ := makeBufs(2, 23, 99)
	want := cloneBufs(orig)
	gc := NewGroup(2)
	runGroup(2, gc, func(rank int) { gc.AllreduceTree(rank, want[rank]) })

	got := cloneBufs(orig)
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			g := NewTransportGroup(trs[r], nil, nil, nil)
			defer g.Close()
			for round := 0; round < 3; round++ {
				g.Barrier(r) // wire barrier: no shared memory between endpoints
			}
			g.AllreduceTree(r, got[r])
		}(r)
	}
	wg.Wait()
	for r := 0; r < 2; r++ {
		for i := range want[r] {
			if got[r][i] != want[r][i] {
				t.Fatalf("multi-process rank %d[%d]: %g != channel %g", r, i, got[r][i], want[r][i])
			}
		}
	}
}

// freePort claims an ephemeral port and releases it for the test to
// re-bind. The tiny reuse race is acceptable for a loopback test.
func freePort(t *testing.T) int {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	port := l.Addr().(*net.TCPAddr).Port
	l.Close()
	return port
}

// TestTCPAllreduceSteadyStateAllocs pins an allreduce over loopback
// sockets to zero allocations per round after warmup, on both of the
// writer's paths: m = 4096 words makes 32 KiB frames, which are encoded
// into the coalescing buffer, and m = 276 971 (the benchmark's dense
// message) makes 2.2 MB frames, which go out in one vectored write from
// the sender's memory and come in straight into a pooled buffer. Both
// AllreduceTree and AllreduceTreeApply run at p = 4 and at the
// benchmark's p = 2, where the top edge's exchange is the whole
// collective. The harness is TestAllreduceSteadyStateAllocs's —
// persistent rank goroutines, GC off so the pools are not drained
// mid-measurement, one kernel worker — and AllocsPerRun counts mallocs
// process-wide, so the writer and reader goroutines are measured too.
func TestTCPAllreduceSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; allocs/op is pinned in non-race builds")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer parallel.SetWorkers(parallel.SetWorkers(1))

	for _, tc := range []struct {
		name string
		m    int
	}{{"coalesced", 4096}, {"vectored", 276971}} {
		t.Run(tc.name, func(t *testing.T) {
			if inPlace := wire.FrameLen(tc.m) >= wireBufSize; inPlace != (tc.name == "vectored") {
				t.Fatalf("a %d-word frame is on the wrong side of wireBufSize for this case", tc.m)
			}
			for _, op := range []string{"tree", "apply"} {
				for _, p := range []int{4, 2} {
					t.Run(fmt.Sprintf("%s/p%d", op, p), func(t *testing.T) {
						tcpAllocsRound(t, p, tc.m, op == "apply")
					})
				}
			}
		})
	}
}

// tcpAllocsRound pins one shape of TestTCPAllreduceSteadyStateAllocs.
func tcpAllocsRound(t *testing.T, p, m int, apply bool) {
	tr, err := NewTCPLoopback(p)
	if err != nil {
		t.Fatal(err)
	}
	g := NewTransportGroup(tr, nil, nil, nil)
	defer g.Close()
	bufs, xs := make([][]float64, p), make([][]float64, p)
	for r := range bufs {
		bufs[r], xs[r] = make([]float64, m), make([]float64, m)
	}
	collective := func(r int) {
		if apply {
			g.AllreduceTreeApply(r, bufs[r], xs[r], -0.5)
		} else {
			g.AllreduceTree(r, bufs[r])
		}
	}
	start := make([]chan struct{}, p)
	done := make(chan struct{}, p)
	for r := 1; r < p; r++ {
		start[r] = make(chan struct{})
		go func(r int) {
			for range start[r] {
				collective(r)
				done <- struct{}{}
			}
		}(r)
	}
	round := func() {
		for r := 1; r < p; r++ {
			start[r] <- struct{}{}
		}
		collective(0)
		for r := 1; r < p; r++ {
			<-done
		}
	}
	for i := 0; i < 5; i++ {
		round() // warm the pools and the sockets' iovec caches
	}
	if n := testing.AllocsPerRun(20, round); n != 0 {
		t.Errorf("steady-state collective of %d words allocates %.1f/op, want 0", m, n)
	}
	for r := 1; r < p; r++ {
		close(start[r])
	}
}

// linkLog records, in the order they happen, the sends a transport is
// handed (with a copy of the payload as it is at the call) and the
// receives it is asked for (at the call, before one is delivered).
type linkLog struct {
	mu     sync.Mutex
	events []linkEvent
}

type linkEvent struct {
	send     bool
	from, to int
	data     []float64 // sends only
}

func (l *linkLog) add(e linkEvent) {
	l.mu.Lock()
	l.events = append(l.events, e)
	l.mu.Unlock()
}

// recording is a transport that logs its traffic.
type recording struct {
	Transport
	log *linkLog
}

func (t recording) Send(from, to int, f Frame) {
	t.log.add(linkEvent{send: true, from: from, to: to, data: slices.Clone(f.Data)})
	t.Transport.Send(from, to, f)
}

func (t recording) Recv(to, from int) Frame {
	t.log.add(linkEvent{from: from, to: to})
	return t.Transport.Recv(to, from)
}

// recordingTCP is a recording TCP transport that keeps its buffer pool
// visible, so a group built over it runs as over the bare transport.
type recordingTCP struct{ recording }

func (t recordingTCP) bufferPool() *bufPool { return t.Transport.(*TCPTransport).bufferPool() }

// TestTopEdgeExchange pins the mechanism of the dense sum on a wire: the
// root and its last child — the top edge, whose child's subtree is the
// positions c … p−1 — swap partials and each folds the total. So the one
// frame the root sends that child carries the root's partial (the sum
// over positions 0 … c−1), not the total, and the root sends it before
// it asks for the child's. A channel group and a simulated TCP group
// keep the walk up then down: their root's frame to that child is the
// total, after the child's partial came up (on channels, where the
// apply spends the buffer that frame hands back, only its count and
// order are pinned). Values are small integers, so every partial and
// total is exact in any order.
func TestTopEdgeExchange(t *testing.T) {
	const m = 19
	backends := []struct {
		name     string
		exchange bool
		make     func(t *testing.T, p int, log *linkLog) *Group
	}{
		{"tcp", true, func(t *testing.T, p int, log *linkLog) *Group {
			return NewTransportGroup(recordingTCP{recording{tcpLoopback(t, p), log}}, nil, nil, nil)
		}},
		{"channel", false, func(t *testing.T, p int, log *linkLog) *Group {
			return NewTransportGroup(recording{newChanTransport(p), log}, nil, nil, nil)
		}},
		{"tcp-simulated", false, func(t *testing.T, p int, log *linkLog) *Group {
			clocks := make([]Clock, p)
			for r := range clocks {
				clocks[r] = &simpleClock{}
			}
			return NewTransportGroup(recordingTCP{recording{tcpLoopback(t, p), log}}, nil, clocks, linkCost{})
		}},
	}
	ops := []struct {
		name string
		run  func(g *Group, r int, buf, x []float64)
	}{
		{"tree", func(g *Group, r int, buf, _ []float64) { g.AllreduceTree(r, buf) }},
		{"apply", func(g *Group, r int, buf, x []float64) { g.AllreduceTreeApply(r, buf, x, 0.5) }},
	}
	for _, b := range backends {
		for _, op := range ops {
			for _, p := range []int{2, 3, 5, 8} {
				c := 1 // the root's last child: the largest power of two below p
				for 2*c < p {
					c *= 2
				}
				bufs, xs := make([][]float64, p), make([][]float64, p)
				partial, total := make([]float64, m), make([]float64, m)
				for r := range bufs {
					bufs[r], xs[r] = make([]float64, m), make([]float64, m)
					for i := range bufs[r] {
						bufs[r][i] = float64((r*7+i*3)%11 + 1)
						xs[r][i] = float64(i)
						if r < c {
							partial[i] += bufs[r][i]
						}
						total[i] += bufs[r][i]
					}
				}
				log := new(linkLog)
				g := b.make(t, p, log)
				runGroup(p, g, func(r int) { op.run(g, r, bufs[r], xs[r]) })
				g.Close()

				name := fmt.Sprintf("%s %s p=%d", b.name, op.name, p)
				var down [][]float64
				sentAt, recvAt := -1, -1
				for i, e := range log.events {
					switch {
					case e.send && e.from == 0 && e.to == c:
						down = append(down, e.data)
						sentAt = i
					case !e.send && e.to == 0 && e.from == c && recvAt < 0:
						recvAt = i
					}
				}
				want := total
				if b.exchange {
					want = partial
				}
				// A by-reference frame under the apply is the child's own
				// buffer, which the apply spends: only its count is pinned.
				spent := b.name == "channel" && op.name == "apply"
				if len(down) != 1 || !spent && !slices.Equal(down[0], want) {
					t.Fatalf("%s: root → rank %d frames %v, want one carrying %v", name, c, down, want)
				}
				if b.exchange != (sentAt < recvAt) {
					t.Errorf("%s: root sent to rank %d at event %d and asked for its partial at event %d; exchange %v",
						name, c, sentAt, recvAt, b.exchange)
				}
				for r := range xs {
					for i, v := range xs[r] {
						if op.name == "apply" && v != float64(i)+0.5*total[i] {
							t.Fatalf("%s: rank %d x[%d] = %g, want %g", name, r, i, v, float64(i)+0.5*total[i])
						}
						if op.name == "tree" && bufs[r][i] != total[i] {
							t.Fatalf("%s: rank %d buf[%d] = %g, want the total %g", name, r, i, bufs[r][i], total[i])
						}
					}
				}
			}
		}
	}
}

func tcpLoopback(t *testing.T, p int) *TCPTransport {
	t.Helper()
	tr, err := NewTCPLoopback(p)
	if err != nil {
		t.Fatalf("NewTCPLoopback(%d): %v", p, err)
	}
	t.Cleanup(func() { tr.Close() })
	return tr
}
