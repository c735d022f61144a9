package nn_test

import (
	"bytes"
	"fmt"
	"math/rand"

	"sasgd/internal/nn"
	"sasgd/internal/tensor"
)

// Build a small classifier, run one training step, and apply the
// gradient — the inner loop every algorithm in internal/core is built
// from.
func ExampleNetwork() {
	rng := rand.New(rand.NewSource(1))
	net := nn.NewNetwork([]int{4},
		nn.NewLinear(rng, 4, 8),
		nn.NewTanh(),
		nn.NewLinear(rng, 8, 2),
	)
	x := tensor.New(2, 4)
	x.FillRandn(rng, 0, 1)
	before := net.Step(x, []int{0, 1})
	tensor.Axpy(-0.5, net.GradData(), net.ParamData())
	after := net.Loss(net.Forward(x, false), []int{0, 1})
	fmt.Printf("loss decreased: %v\n", after < before)
	// Output:
	// loss decreased: true
}

// Checkpoints restore a model's parameters exactly into any replica of
// the same architecture.
func ExampleWriteParams() {
	mk := func(seed int64) *nn.Network {
		rng := rand.New(rand.NewSource(seed))
		return nn.NewNetwork([]int{3}, nn.NewLinear(rng, 3, 2))
	}
	src, dst := mk(1), mk(2)
	var buf bytes.Buffer
	if err := nn.WriteParams(&buf, src.ParamData()); err != nil {
		panic(err)
	}
	params, err := nn.ReadParams(&buf)
	if err != nil {
		panic(err)
	}
	dst.SetParamData(params)
	fmt.Println(src.ParamData()[0] == dst.ParamData()[0])
	// Output:
	// true
}
