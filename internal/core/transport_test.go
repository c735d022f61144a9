package core

import (
	"fmt"
	"net"
	"sync"
	"testing"

	"sasgd/internal/comm"
)

// transportCfg is the shared run shape for the transport tests: small
// enough to train in milliseconds, several aggregation boundaries and
// two epochs of barriers deep.
func transportCfg(p int) Config {
	return Config{
		Algo: AlgoSASGD, Learners: p, Interval: 2, Batch: 4,
		Gamma: 0.05, Epochs: 2, Seed: 9,
	}
}

// TestTrainTCPLoopbackMatchesChannel: a whole training run whose frames
// ride loopback sockets must be bitwise identical to the channel-fabric
// run — curve, final parameters, and traffic counters alike.
func TestTrainTCPLoopbackMatchesChannel(t *testing.T) {
	const p = 3
	prob := tinyProblem(48, 24, 5)
	want := Train(transportCfg(p), prob)

	tr, err := comm.NewTCPLoopback(p)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	cfg := transportCfg(p)
	cfg.Transport = tr
	got := Train(cfg, prob)

	if len(got.FinalParams) == 0 || len(got.FinalParams) != len(want.FinalParams) {
		t.Fatalf("final parameter lengths %d vs %d", len(got.FinalParams), len(want.FinalParams))
	}
	for i := range want.FinalParams {
		if !sameBits(got.FinalParams[i], want.FinalParams[i]) {
			t.Fatalf("final parameters differ at %d: %g vs %g (must be bitwise identical)",
				i, got.FinalParams[i], want.FinalParams[i])
		}
	}
	if got.WordsMoved != want.WordsMoved {
		t.Errorf("words moved: tcp %d vs channel %d", got.WordsMoved, want.WordsMoved)
	}
	if len(got.Curve) != len(want.Curve) {
		t.Fatalf("curve lengths %d vs %d", len(got.Curve), len(want.Curve))
	}
	for i, w := range want.Curve {
		// WallSecs is real time and legitimately differs; everything the
		// algorithm computes must not.
		g := got.Curve[i]
		if g.Epoch != w.Epoch || g.Train != w.Train || g.Test != w.Test || g.Loss != w.Loss {
			t.Errorf("curve point %d differs: %+v vs %+v", i, g, w)
		}
	}
}

// TestTrainMultiEndpointMatchesChannel runs the genuinely distributed
// shape inside one test process: two TCP mesh endpoints, each hosting
// one learner (its Local rank), train concurrently and meet only on the
// wire (collectives, barriers, epoch evaluation). The rank-0 endpoint's
// final parameters must match the single-process channel run bitwise.
func TestTrainMultiEndpointMatchesChannel(t *testing.T) {
	const p = 2
	prob := tinyProblem(48, 24, 5)
	want := Train(transportCfg(p), prob)

	trs := tcpEndpoints(t)
	var wg sync.WaitGroup
	results := make([]*Result, p)
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			defer trs[r].Close()
			cfg := transportCfg(p)
			cfg.Transport = trs[r]
			cfg.Workers = 1 // both endpoints share this process's budget
			results[r] = Train(cfg, prob)
		}(r)
	}
	wg.Wait()

	got := results[0]
	if len(got.FinalParams) != len(want.FinalParams) || len(got.FinalParams) == 0 {
		t.Fatalf("rank-0 endpoint parameters: %d words, want %d", len(got.FinalParams), len(want.FinalParams))
	}
	for i := range want.FinalParams {
		if !sameBits(got.FinalParams[i], want.FinalParams[i]) {
			t.Fatalf("multi-endpoint parameters differ at %d: %g vs %g (must be bitwise identical)",
				i, got.FinalParams[i], want.FinalParams[i])
		}
	}
	if len(results[1].FinalParams) != 0 {
		t.Errorf("rank-1 endpoint reported %d final parameters; only rank 0 records them", len(results[1].FinalParams))
	}
}

// tcpEndpoints builds the two endpoints of a two-rank partial mesh over
// loopback, each hosting one rank (its Local rank), as two processes
// would.
func tcpEndpoints(t *testing.T) [2]*comm.TCPTransport {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	port := l.Addr().(*net.TCPAddr).Port
	l.Close()
	addrs := []string{"127.0.0.1:0", fmt.Sprintf("127.0.0.1:%d", port)}

	var trs [2]*comm.TCPTransport
	var errs [2]error
	var wg sync.WaitGroup
	for r := range trs {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			trs[r], errs[r] = comm.NewTCPTransport(comm.TCPConfig{Addrs: addrs, Local: []int{r}})
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("endpoint %d: %v", r, err)
		}
	}
	return trs
}
