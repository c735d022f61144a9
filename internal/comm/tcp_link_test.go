package comm

import (
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sasgd/internal/comm/wire"
)

// TestTCPLinkEndUnwindsEveryRank: however one link of a running mesh
// ends — its connection closed, its write side half-closed, a
// CRC-corrupt or a misrouted frame on it — every rank unwinds within
// 10 s with an error that is ErrClosed and names the link it was
// receiving on, the ended link's receiver also with the cause, and
// nothing panics the process. Each rank is a partial-mesh endpoint of
// its own over loopback, as in a multi-process run, and closes its
// transport when its allreduce loop fails (what core.Run's abort does):
// a failure spreads the only way it can between processes, as the end of
// the failed rank's links. Goroutines return to their baseline.
func TestTCPLinkEndUnwindsEveryRank(t *testing.T) {
	const p = 3
	// inject writes raw bytes onto link 1→0 between two of its frames.
	inject := func(b []byte) func([]*TCPTransport) {
		return func(trs []*TCPTransport) {
			l := trs[1].links[1][0]
			l.mu.Lock()
			l.w.conn.Write(b)
			l.mu.Unlock()
		}
	}
	corrupt := wire.AppendFrame(nil, wire.Header{From: 1, To: 0}, []float64{1, 2, 3})
	corrupt[wire.HeaderLen+9] ^= 0x10
	cases := []struct {
		name  string
		end   func(trs []*TCPTransport) // ends link 1→0 mid-run
		cause error                     // rank 0's cause (nil: see text)
		text  string                    // in rank 0's error
	}{
		{"conn closed", func(trs []*TCPTransport) { trs[0].links[0][1].w.conn.Close() }, net.ErrClosed, "closed"},
		{"half-closed", func(trs []*TCPTransport) {
			l := trs[1].links[1][0]
			l.mu.Lock()
			l.w.conn.(*net.TCPConn).CloseWrite()
			l.mu.Unlock()
		}, io.EOF, "EOF"},
		{"crc-corrupt frame", inject(corrupt), wire.ErrBadCRC, "CRC"},
		{"misrouted frame", inject(wire.AppendFrame(nil, wire.Header{From: 2, To: 0}, []float64{1})), nil, "misrouted frame addressed 2→0"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			addrs := []string{"127.0.0.1:0", fmt.Sprintf("127.0.0.1:%d", freePort(t)), fmt.Sprintf("127.0.0.1:%d", freePort(t))}
			trs := make([]*TCPTransport, p)
			var wg sync.WaitGroup
			for r := range trs {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					var err error
					if trs[r], err = NewTCPTransport(TCPConfig{Addrs: addrs, Local: []int{r}}); err != nil {
						t.Errorf("endpoint %d: %v", r, err)
					}
				}(r)
			}
			wg.Wait()
			if t.Failed() {
				for _, tr := range trs {
					if tr != nil {
						tr.Close()
					}
				}
				return
			}

			errs := make([]error, p)
			var rounds [p]atomic.Int64
			for r := range trs {
				wg.Add(1)
				go func(r int) {
					g := NewTransportGroup(trs[r], nil, nil, nil)
					defer wg.Done()
					defer g.Close()
					defer func() {
						rec := recover()
						if errs[r], _ = rec.(error); errs[r] == nil {
							errs[r] = fmt.Errorf("rank %d panicked with %v", r, rec)
						}
					}()
					buf := make([]float64, 300)
					for {
						for i := range buf {
							buf[i] = float64(r + i)
						}
						g.AllreduceTree(r, buf)
						rounds[r].Add(1)
					}
				}(r)
			}
			for r := range rounds {
				for rounds[r].Load() < 20 {
					time.Sleep(time.Millisecond)
				}
			}
			tc.end(trs)
			unwound := make(chan struct{})
			go func() { wg.Wait(); close(unwound) }()
			select {
			case <-unwound:
			case <-time.After(10 * time.Second):
				t.Fatalf("ranks still running 10 s after link 1→0 ended (rounds %d %d %d)",
					rounds[0].Load(), rounds[1].Load(), rounds[2].Load())
			}

			for r, err := range errs {
				link := fmt.Sprintf("comm: tcp link 0→%d: ", r) // what ends at a peer of rank 0: its links
				if r == 0 {
					link = "comm: tcp link 1→0: "
				}
				t.Logf("rank %d: %v", r, err)
				if !errors.Is(err, ErrClosed) || !strings.HasPrefix(err.Error(), link) {
					t.Errorf("rank %d unwound with %v, want ErrClosed naming %q", r, err, link)
				}
			}
			if tc.cause != nil && !errors.Is(errs[0], tc.cause) || !strings.Contains(errs[0].Error(), tc.text) {
				t.Errorf("rank 0 unwound with %v, want the cause %v (%q)", errs[0], tc.cause, tc.text)
			}
			deadline := time.Now().Add(10 * time.Second)
			for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
				time.Sleep(10 * time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > base {
				t.Errorf("%d goroutines after every endpoint closed, %d before", n, base)
			}
		})
	}
}
