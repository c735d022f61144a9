// NLC-F scenario: the paper's headline comparison on its second
// workload — Downpour vs EAMSGD vs SASGD at a large aggregation interval
// (T = 50) as the learner count grows. The asynchronous baselines lose
// accuracy as staleness grows with p; SASGD's staleness is capped at T
// and it holds the sequential ceiling.
//
//	go run ./examples/nlcf
package main

import (
	"fmt"
	"log"

	"sasgd/internal/core"
	"sasgd/internal/experiments"
	"sasgd/internal/report"
)

func main() {
	w := experiments.TextWorkload()
	const epochs = 20

	fmt.Printf("Downpour vs EAMSGD vs SASGD on %s (T=50, %d epochs, M=%d, γ=%g)\n\n",
		w.Name, epochs, w.Batch, w.Gamma)

	tab := report.Table{Header: []string{"p", "algo", "train acc", "test acc", "staleness(mean/max)"}}
	for _, p := range []int{2, 8, 16} {
		for _, algo := range []core.Algorithm{core.AlgoDownpour, core.AlgoEAMSGD, core.AlgoSASGD} {
			res, err := core.Run(core.Config{
				Algo: algo, Learners: p, Interval: 50,
				Gamma: w.Gamma, Batch: w.Batch, Epochs: epochs, Seed: 1, EvalEvery: epochs,
			}, w.Problem)
			if err != nil {
				log.Fatal(err)
			}
			tab.AddRow(
				fmt.Sprint(p), string(algo),
				report.Pct(res.FinalTrain), report.Pct(res.FinalTest),
				fmt.Sprintf("%.1f/%d", res.StalenessMean, res.StalenessMax),
			)
		}
	}
	fmt.Print(tab.String())
	fmt.Println("\nSASGD's explicit staleness bound (T) is what keeps it at the")
	fmt.Println("ceiling while the parameter-server algorithms degrade with p.")
}
