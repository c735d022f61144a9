// Quickstart: build a network, generate a synthetic workload, and train
// it with SASGD (Algorithm 1 of the paper) on four learners.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"math/rand"

	"sasgd/internal/core"
	"sasgd/internal/data"
	"sasgd/internal/model"
	"sasgd/internal/nn"
	"sasgd/internal/report"
)

func main() {
	// 1. A workload: a reduced-scale version of the paper's CIFAR-10
	//    image-classification task (class-conditional synthetic images).
	train, test := data.GenImages(data.SmallImageConfig())

	// 2. A model factory: every learner builds its own replica of the
	//    Table-I convolutional network; SASGD broadcasts learner 0's
	//    initial parameters to the rest.
	prob := &core.Problem{
		Name: "quickstart",
		Model: func(seed int64) *nn.Network {
			return model.NewCIFARNet(rand.New(rand.NewSource(seed)), model.SmallCIFARConfig())
		},
		Train: train,
		Test:  test,
	}

	// 3. Train with SASGD: p = 4 learners, aggregation interval T = 10,
	//    local rate γ = 0.1 and the default global rate γp = γ/p (which
	//    makes each aggregation exactly model averaging).
	res, err := core.Run(core.Config{
		Algo:     core.AlgoSASGD,
		Learners: 4,
		Interval: 10,
		Gamma:    0.1,
		Batch:    16,
		Epochs:   10,
		Seed:     1,
	}, prob)
	if err != nil {
		log.Fatal(err)
	}

	for _, pt := range res.Curve {
		fmt.Printf("epoch %2d: train %s  test %s\n", pt.Epoch, report.Pct(pt.Train), report.Pct(pt.Test))
	}
	fmt.Printf("\nSASGD processed %d samples across %d learners; staleness is bounded by T=%d by construction (measured max: %d)\n",
		res.Samples, res.P, res.T, res.StalenessMax)
}
