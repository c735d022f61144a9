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
// shape inside one test process: p TCP mesh endpoints, each hosting one
// learner (its Local rank), train concurrently and meet only on the
// wire (collectives, barriers, epoch evaluation). The rank-0 endpoint's
// final parameters must match the single-process channel run bitwise.
// At p = 2 the whole collective is the top edge's exchange across two
// meshes; at 3 and 5 the exchange runs beside plain tree edges.
func TestTrainMultiEndpointMatchesChannel(t *testing.T) {
	prob := tinyProblem(48, 24, 5)
	for _, p := range []int{2, 3, 5} {
		t.Run(fmt.Sprintf("p%d", p), func(t *testing.T) {
			want := Train(transportCfg(p), prob)
			trs := tcpEndpoints(t, p)
			var wg sync.WaitGroup
			results := make([]*Result, p)
			for r := 0; r < p; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					defer trs[r].Close()
					cfg := transportCfg(p)
					cfg.Transport = trs[r]
					cfg.Workers = 1 // every endpoint shares this process's budget
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
			for r := 1; r < p; r++ {
				if len(results[r].FinalParams) != 0 {
					t.Errorf("rank-%d endpoint reported %d final parameters; only rank 0 records them", r, len(results[r].FinalParams))
				}
			}
		})
	}
}

// tcpEndpoints builds the p endpoints of a p-rank partial mesh over
// loopback, each hosting one rank (its Local rank), as p processes
// would. Rank 0 dials every link, so only ranks 1 … p−1 need a port
// known in advance.
func tcpEndpoints(t *testing.T, p int) []*comm.TCPTransport {
	t.Helper()
	addrs := []string{"127.0.0.1:0"}
	for len(addrs) < p {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, fmt.Sprintf("127.0.0.1:%d", l.Addr().(*net.TCPAddr).Port))
		l.Close()
	}
	trs := make([]*comm.TCPTransport, p)
	errs := make([]error, p)
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

// TestEvalShardsBitwise: the epoch-edge evaluation is split by samples
// over workers × local learners shards. A p = 2 run on one channel mesh
// evaluates on 2 shards (Workers 1); run as two single-rank TCP
// endpoints, rank 0's evaluates on 1 (Workers 1) or 3 (Workers 3). The
// curves and final parameters are bitwise the same, on an NLC-F-shaped
// and a CIFAR-shaped problem whose sets are several chunks each.
func TestEvalShardsBitwise(t *testing.T) {
	for name, prob := range map[string]*Problem{"nlcf": nlcfProblem(200, 136), "cifar": cifarProblem(150, 70)} {
		t.Run(name, func(t *testing.T) {
			cfg := Config{Algo: AlgoSASGD, Learners: 2, Interval: 2, Batch: 8, Gamma: 0.05, Epochs: 2, Seed: 3, Workers: 1}
			want := Train(cfg, prob)
			for _, workers := range []int{1, 3} {
				trs := tcpEndpoints(t, 2)
				results := make([]*Result, 2)
				var wg sync.WaitGroup
				for r := range trs {
					wg.Add(1)
					go func(r int) {
						defer wg.Done()
						defer trs[r].Close()
						c := cfg
						c.Transport = trs[r]
						if r == 0 {
							c.Workers = workers
						}
						results[r] = Train(c, prob)
					}(r)
				}
				wg.Wait()
				got := results[0]
				if len(got.Curve) != len(want.Curve) || len(got.FinalParams) != len(want.FinalParams) {
					t.Fatalf("rank 0 at %d shards: %d points and %d params, want %d and %d",
						workers, len(got.Curve), len(got.FinalParams), len(want.Curve), len(want.FinalParams))
				}
				for i, w := range want.Curve {
					if g := got.Curve[i]; g.Epoch != w.Epoch || g.Train != w.Train || g.Test != w.Test || g.Loss != w.Loss {
						t.Errorf("%d shards: curve point %d is %+v, 2 shards %+v", workers, i, g, w)
					}
				}
				for i := range want.FinalParams {
					if !sameBits(got.FinalParams[i], want.FinalParams[i]) {
						t.Fatalf("%d shards: final parameter %d is %g, 2 shards %g", workers, i, got.FinalParams[i], want.FinalParams[i])
					}
				}
			}
		})
	}
}
