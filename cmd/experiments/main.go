// Command experiments regenerates every table and figure in the paper's
// evaluation at reduced scale (see DESIGN.md §6), printing the same rows
// and series the paper reports. With no flags it runs the full suite in
// paper order; -only selects specific items.
//
//	go run ./cmd/experiments                  # everything (several minutes)
//	go run ./cmd/experiments -only fig9,fig10 # just the headline comparison
//	go run ./cmd/experiments -epochs 10       # shrink every epoch budget
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"sasgd/internal/experiments"
)

func main() {
	only := flag.String("only", "", "comma-separated subset: tables, theorem1, fig1..fig10, averaging, faults, compress, sched (default: all)")
	epochs := flag.Int("epochs", 0, "override every figure's epoch budget (0 = per-figure default)")
	seed := flag.Int64("seed", 0, "seed offset for replication runs")
	replicas := flag.Int("replicas", 3, "seeds averaged per convergence curve (1 = single run)")
	jsonDir := flag.String("json", "", "also write each item's structured result as JSON into this directory")
	trace := flag.String("trace", "", "Chrome-trace output file for the faults item's restart after the crash")
	flag.Parse()

	opt := experiments.Opt{Out: os.Stdout, Epochs: *epochs, Seed: *seed, Replicas: *replicas,
		TracePath: *trace}
	all := []struct {
		name string
		run  func() interface{}
	}{
		{"tables", func() interface{} {
			return map[string]interface{}{"tableI": experiments.TableI(opt), "tableII": experiments.TableII(opt)}
		}},
		{"theorem1", func() interface{} { return experiments.Theorem1(opt) }},
		{"fig1", func() interface{} { return experiments.Fig1(opt) }},
		{"fig2", func() interface{} { return experiments.Fig2(opt) }},
		{"rate", func() interface{} { return experiments.DerivedRate(opt) }},
		{"fig3", func() interface{} { return experiments.Fig3(opt) }},
		{"fig4", func() interface{} { return experiments.Fig4(opt) }},
		{"fig5", func() interface{} { return experiments.Fig5(opt) }},
		{"fig6", func() interface{} { return experiments.Fig6(opt) }},
		{"fig7", func() interface{} { return experiments.Fig7(opt) }},
		{"fig8", func() interface{} { return experiments.Fig8(opt) }},
		{"fig9", func() interface{} { return experiments.Fig9(opt) }},
		{"fig10", func() interface{} { return experiments.Fig10(opt) }},
		{"averaging", func() interface{} { return experiments.AveragingVariants(opt) }},
		{"faults", func() interface{} { return experiments.DegradedRuns(opt) }},
		{"compress", func() interface{} { return experiments.CompressionFrontier(opt) }},
		{"sched", func() interface{} { return experiments.CommScheduleFrontier(opt) }},
	}

	want := map[string]bool{}
	if *only != "" {
		for _, name := range strings.Split(*only, ",") {
			want[strings.TrimSpace(strings.ToLower(name))] = true
		}
		for name := range want {
			found := false
			for _, item := range all {
				if item.name == name {
					found = true
					break
				}
			}
			if !found {
				fmt.Fprintf(os.Stderr, "experiments: unknown item %q\n", name)
				os.Exit(2)
			}
		}
	}

	if *jsonDir != "" {
		if err := os.MkdirAll(*jsonDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
	}
	start := time.Now()
	for _, item := range all {
		if len(want) > 0 && !want[item.name] {
			continue
		}
		t0 := time.Now()
		result := item.run()
		fmt.Printf("[%s done in %s]\n\n", item.name, time.Since(t0).Round(time.Millisecond))
		if *jsonDir != "" {
			raw, err := json.MarshalIndent(result, "", "  ")
			if err == nil {
				err = os.WriteFile(filepath.Join(*jsonDir, item.name+".json"), raw, 0o644)
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "experiments: writing %s.json: %v\n", item.name, err)
				os.Exit(1)
			}
		}
	}
	fmt.Printf("total: %s\n", time.Since(start).Round(time.Millisecond))
}
