package comm_test

import (
	"fmt"
	"sync"

	"sasgd/internal/comm"
)

// Four learners sum their gradient buffers with the binomial-tree
// allreduce SASGD aggregates through; every learner ends up with the
// global sum.
func ExampleGroup_AllreduceTree() {
	const p = 4
	g := comm.NewGroup(p)
	bufs := [][]float64{{1, 0}, {2, 0}, {3, 0}, {4, 10}}
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			g.AllreduceTree(r, bufs[r])
		}(r)
	}
	wg.Wait()
	fmt.Println(bufs[0], bufs[3])
	// Output:
	// [10 10] [10 10]
}

// The top-k codec ships only the largest-magnitude coordinates of each
// learner's gradient and keeps the rest as that learner's residual for
// the next interval. Two learners at k = 1 of 4: both send coordinate 1,
// the aggregate is the sum there and zero elsewhere.
func ExampleNewCompressor() {
	const p = 2
	g := comm.NewGroup(p)
	grads := [][]float64{{0.1, -5, 2, 0}, {0.5, 3, 0, -1}}
	resid := [][]float64{make([]float64, 4), make([]float64, 4)}
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			comm.NewCompressor("topk").Allreduce(g, r, grads[r], resid[r], 0.25, 0, nil, 0)
		}(r)
	}
	wg.Wait()
	fmt.Println(grads[0], grads[1])
	fmt.Println(resid[0], resid[1])
	// Output:
	// [0 -2 0 0] [0 -2 0 0]
	// [0.1 0 2 0] [0.5 0 0 -1]
}

// The sharded parameter server Downpour aggregates through: pushes apply
// scaled gradients, pulls read the (not necessarily consistent) current
// parameters.
func ExampleParamServer() {
	srv := comm.NewParamServer([]float64{1, 1, 1, 1}, 2, nil, nil)
	srv.PushGrad(0, 0.5, []float64{2, 2, 2, 2})
	out := make([]float64, 4)
	srv.Pull(0, out)
	fmt.Println(out)
	// Output:
	// [0 0 0 0]
}
