package comm

import (
	"fmt"
	"net"
	"reflect"
	"runtime/debug"
	"sync"
	"testing"
	"time"

	"sasgd/internal/comm/wire"
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
// the transport cut: every allreduce algorithm, over group sizes
// including non-powers of two, must produce bitwise-identical buffers
// AND identical traffic stats on the channel fabric and on TCP
// loopback. Float64 words survive the wire codec bit-exactly and the
// collectives never branch on the backend, so equality here is exact —
// any drift means the transport leaked into algorithm behavior.
func TestCrossTransportAllreduceEquivalence(t *testing.T) {
	algos := []struct {
		name string
		run  func(g *Group, rank int, buf []float64)
	}{
		{"tree", func(g *Group, rank int, buf []float64) { g.AllreduceTree(rank, buf) }},
		{"ptree", func(g *Group, rank int, buf []float64) { g.AllreduceTreeChunked(rank, buf, 16) }},
	}
	for _, p := range []int{1, 2, 3, 5, 8} {
		for _, m := range []int{1, 23, 129} {
			orig, _ := makeBufs(p, m, int64(7000*p+m))
			for _, algo := range algos {
				var refBufs [][]float64
				var refStats Stats
				for _, tc := range transportCases() {
					bufs := cloneBufs(orig)
					g := tc.make(t, p)
					runGroup(p, g, func(rank int) {
						algo.run(g, rank, bufs[rank])
						g.Barrier(rank)
					})
					st := g.Stats()
					if refBufs == nil {
						refBufs, refStats = bufs, st
						continue
					}
					for r := 0; r < p; r++ {
						for i := range bufs[r] {
							if bufs[r][i] != refBufs[r][i] {
								t.Fatalf("p=%d m=%d algo=%s rank=%d[%d]: %s %g != channel %g (must be bitwise)",
									p, m, algo.name, r, i, tc.name, bufs[r][i], refBufs[r][i])
							}
						}
					}
					if !reflect.DeepEqual(st, refStats) {
						t.Fatalf("p=%d m=%d algo=%s: %s stats %+v != channel stats %+v",
							p, m, algo.name, tc.name, st, refStats)
					}
				}
			}
		}
	}
}

// TestCrossTransportReliableDelivery drives the fault-injected reliable
// path (seq-stamped frames, acks, retransmits) over both backends with
// the same deterministic plan. Drops and retry delays are decided by
// the plan's hash, not the transport, so the delivered payloads must
// match; retry counts may differ (wall-clock timers race real sockets),
// so only delivery correctness is asserted.
func TestCrossTransportReliableDelivery(t *testing.T) {
	const p, rounds = 3, 20
	for _, tc := range transportCases() {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.make(t, p)
			g.InjectFaults(&FaultPlan{Seed: 11, Drop: 0.3, RetryTimeout: 40 * time.Millisecond})
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
			if drops := g.Stats().Faults.Drops; drops == 0 {
				t.Errorf("%s: fault plan injected no drops in %d sends", tc.name, p*rounds)
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
// — and, with a fault plan attached, senders queued behind a link
// daemon and daemons waiting on acks — must all return once Close runs
// instead of leaking blocked goroutines.
func TestGroupCloseUnblocksPendingSends(t *testing.T) {
	for _, faults := range []bool{false, true} {
		name := "plain"
		if faults {
			name = "faulty"
		}
		t.Run(name, func(t *testing.T) {
			g := NewGroup(2)
			if faults {
				// Nothing ever receives, so the daemon blocks awaiting an
				// ack and later sends pile up in its queue.
				g.InjectFaults(&FaultPlan{Seed: 3, Drop: 0.1, RetryTimeout: 5 * time.Millisecond})
			}
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
					tr.Send(from, to, Frame{Data: []float64{float64(i)}, Seq: int64(i)})
				}
			}(from, to)
			go func(from, to int) {
				defer wg.Done()
				for i := 0; i < frames; i++ {
					f := tr.Recv(to, from)
					if len(f.Data) != 1 || f.Data[0] != float64(i) || f.Seq != int64(i) {
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
// the sender's memory and come in straight into a pooled buffer. The
// harness is TestAllreduceSteadyStateAllocs's — persistent rank
// goroutines, GC off so the pools are not drained mid-measurement, one
// kernel worker — and AllocsPerRun counts mallocs process-wide, so the
// writer and reader goroutines are measured too.
func TestTCPAllreduceSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; allocs/op is pinned in non-race builds")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer parallel.SetWorkers(parallel.SetWorkers(1))

	const p = 4
	for _, tc := range []struct {
		name string
		m    int
	}{{"coalesced", 4096}, {"vectored", 276971}} {
		t.Run(tc.name, func(t *testing.T) {
			if inPlace := wire.FrameLen(tc.m) >= wireBufSize; inPlace != (tc.name == "vectored") {
				t.Fatalf("a %d-word frame is on the wrong side of wireBufSize for this case", tc.m)
			}
			tr, err := NewTCPLoopback(p)
			if err != nil {
				t.Fatal(err)
			}
			g := NewTransportGroup(tr, nil, nil, nil)
			defer g.Close()
			bufs := make([][]float64, p)
			for r := range bufs {
				bufs[r] = make([]float64, tc.m)
			}
			start := make([]chan struct{}, p)
			done := make(chan struct{}, p)
			for r := 1; r < p; r++ {
				start[r] = make(chan struct{})
				go func(r int) {
					for range start[r] {
						g.AllreduceTree(r, bufs[r])
						done <- struct{}{}
					}
				}(r)
			}
			round := func() {
				for r := 1; r < p; r++ {
					start[r] <- struct{}{}
				}
				g.AllreduceTree(0, bufs[0])
				for r := 1; r < p; r++ {
					<-done
				}
			}
			for i := 0; i < 5; i++ {
				round() // warm the pools and the sockets' iovec caches
			}
			if n := testing.AllocsPerRun(20, round); n != 0 {
				t.Errorf("steady-state allreduce of %d words allocates %.1f/op, want 0", tc.m, n)
			}
			for r := 1; r < p; r++ {
				close(start[r])
			}
		})
	}
}
