// CIFAR-10 scenario: the trade-off the paper's Section III-B analyzes —
// larger aggregation intervals T amortize communication but increase
// sample complexity. This example trains SASGD at several T values on
// the image workload, reports both the simulated epoch time on the
// paper's platform and the accuracy after a fixed epoch budget, and
// prints the resulting time-to-accuracy trade-off (the reason the paper
// says practitioners must choose T explicitly).
//
//	go run ./examples/cifar10
package main

import (
	"fmt"
	"log"

	"sasgd/internal/core"
	"sasgd/internal/experiments"
	"sasgd/internal/report"
)

func main() {
	w := experiments.ImageWorkload()
	const p = 8
	const epochs = 12

	fmt.Printf("SASGD on %s with p=%d learners, %d epochs per run\n\n", w.Name, p, epochs)
	const target = 0.80
	tab := report.Table{Header: []string{"T", "test acc", "samples to 80%", "sim epoch(s)", "sim time-to-budget(s)"}}
	for _, T := range []int{1, 5, 25, 50} {
		// Accuracy run (real training, reduced scale).
		acc, err := core.Run(core.Config{
			Algo: core.AlgoSASGD, Learners: p, Interval: T,
			Gamma: w.Gamma, Batch: w.Batch, Epochs: epochs, Seed: 1, EvalEvery: 1,
		}, w.Problem)
		if err != nil {
			log.Fatal(err)
		}

		// Timing run (simulated fabric at paper scale).
		sim := w.SimConfig(p)
		timing, err := core.Run(core.Config{
			Algo: core.AlgoSASGD, Learners: p, Interval: T,
			Gamma: w.Gamma, Batch: 64, Epochs: 2, Seed: 1, EvalEvery: 2,
			Sim: sim, FlopsPerSample: w.PaperCost.TrainFlopsPerSample,
		}, w.Problem)
		if err != nil {
			log.Fatal(err)
		}

		epochSecs := timing.EpochTime()
		complexity := "-"
		if s, ok := report.SamplesToTarget(acc.Curve, target, w.Problem.Train.Len()); ok {
			complexity = fmt.Sprint(s)
		}
		tab.AddRow(fmt.Sprint(T), report.Pct(acc.FinalTest), complexity, report.Secs(epochSecs), report.Secs(epochSecs*epochs))
	}
	fmt.Print(tab.String())
	fmt.Println("\nSmall T: more communication per epoch but fewer samples to a")
	fmt.Println("target accuracy. Large T: cheap epochs, higher sample complexity.")
	fmt.Println("The wall-clock optimum is in between — exactly Theorem 4's message.")
}
